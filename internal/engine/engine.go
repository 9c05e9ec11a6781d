package engine

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/complete"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/faultfs"
	"repro/internal/jobs"
	"repro/internal/jobs/jobstore"
	"repro/internal/jobs/walstore"
	"repro/internal/receipt"
	"repro/internal/schemastore"
	"repro/internal/validator"
)

// Schema is one compiled checking artifact: the potential-validity core,
// the full validator, and pools of reusable streaming checkers and
// completers. A Schema is safe for concurrent use; the pools keep
// per-worker checker and completer state off the allocator on the hot
// path.
type Schema struct {
	Core  *core.Schema
	Valid *validator.Validator

	// Ref is the full hex digest of the schema's registry key hash, set by
	// Registry.Compile. Documents in a mixed batch select their schema by
	// (a prefix of) this reference. Empty for schemas built outside a
	// registry.
	Ref string

	checkers   sync.Pool
	completers sync.Pool
}

// NewSchema wraps an already compiled core schema and validator for use
// with the engine. The root-package API builds these for every pv.Schema.
func NewSchema(c *core.Schema, v *validator.Validator) *Schema {
	s := &Schema{Core: c, Valid: v}
	s.checkers.New = func() any { return c.NewStreamChecker() }
	s.completers.New = func() any { return complete.New(c) }
	return s
}

// Doc is one batch input: an identifier (a path, a queue key — anything)
// and the XML content. Content and Bytes are alternatives: when Bytes is
// non-nil it is the document; otherwise Content is, converted to bytes
// once per call. Either way the document is checked on the one byte path.
// SchemaRef optionally routes the document to a registry-cached schema (a
// prefix of Schema.Ref, at least RefMinLen hex digits), letting one batch
// carry a mixed multi-schema firehose.
type Doc struct {
	ID        string `json:"id"`
	Content   string `json:"content,omitempty"`
	Bytes     []byte `json:"-"`
	SchemaRef string `json:"schemaRef,omitempty"`
}

// src returns the document's bytes: Bytes when set, else Content converted
// (one copy, which the compiler elides where the result does not escape,
// as in Size). Apart from the persisted job payload, which keeps the two
// fields apart, it is the only engine code that reads Content.
func (d *Doc) src() []byte {
	if d.Bytes != nil {
		return d.Bytes
	}
	return []byte(d.Content)
}

// Size returns the payload length in bytes.
func (d *Doc) Size() int { return len(d.src()) }

// Result is the verdict for one document. It mirrors the sequential
// CheckString contract: Err is set for lexical/well-formedness problems (the
// document has no verdict); otherwise PotentiallyValid and Valid carry the
// verdict and Detail explains the first potential-validity violation.
type Result struct {
	ID               string
	Index            int
	PotentiallyValid bool
	Valid            bool
	Detail           string
	Err              error
	Bytes            int
}

// BatchStats aggregates one CheckBatch or CompleteBatch call. Malformed
// counts documents that failed lexically; RoutingErrors counts documents
// that never reached a schema (bad schemaRef, no default) — a
// configuration signal, not a data-quality one. On the completion path,
// PotentiallyValid counts completable documents, Valid the already-valid
// ones, and Inserted the total elements inserted across the batch.
type BatchStats struct {
	Docs             int           `json:"docs"`
	PotentiallyValid int           `json:"potentiallyValid"`
	Valid            int           `json:"valid"`
	Malformed        int           `json:"malformed"`
	RoutingErrors    int           `json:"routingErrors,omitempty"`
	Inserted         int64         `json:"inserted,omitempty"`
	Bytes            int64         `json:"bytes"`
	Workers          int           `json:"workers"`
	Elapsed          time.Duration `json:"elapsedNs"`
	DocsPerSec       float64       `json:"docsPerSec"`
	MBPerSec         float64       `json:"mbPerSec"`
}

// tally classifies one result into the stats counters (bytes + verdict) —
// the single source of truth for verdict accounting, shared by CheckBatch,
// the lifetime counters and the streaming endpoint.
func (s *BatchStats) tally(r *Result) {
	s.Bytes += int64(r.Bytes)
	switch {
	case IsRoutingError(r.Err):
		s.RoutingErrors++
	case r.Err != nil:
		s.Malformed++
	case r.Valid:
		s.Valid++
		s.PotentiallyValid++
	case r.PotentiallyValid:
		s.PotentiallyValid++
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds batch concurrency; <=0 selects GOMAXPROCS.
	Workers int
	// CacheSize bounds the schema store's total in-memory capacity (split
	// across shards); <=0 selects DefaultCapacity.
	CacheSize int
	// Shards is the schema store's lock-stripe count; <=0 selects
	// DefaultShards. 1 reproduces the single-mutex registry exactly.
	Shards int
	// CacheDir enables the disk tier: compiled schemas are persisted as
	// content-addressed blobs under this directory and rehydrated (instead
	// of recompiled) on later misses — including by freshly started
	// processes. Empty disables the tier.
	CacheDir string
	// PVOnly skips the full-validity bit (which needs a tree parse of every
	// potentially valid document) — the fastest mode for firehose filtering.
	PVOnly bool
	// DisableFastPath makes every schema this engine compiles skip the
	// content-model DFA fast path, running the PV recognizer for every
	// element (engine-wide CompileOptions.DisableFastPath). Verdicts are
	// identical; the knob exists for apples-to-apples benching and as an
	// operational escape hatch.
	DisableFastPath bool
	// JobWorkers bounds how many async jobs execute concurrently (each
	// job's chunks still share the engine-wide Workers semaphore, so this
	// bounds job-level parallelism, not CPU use); <=0 selects 2.
	JobWorkers int
	// JobQueueDepth bounds async jobs accepted but not yet running; a full
	// queue rejects submission (ErrJobQueueFull, HTTP 429). <=0 selects 64.
	JobQueueDepth int
	// JobResultTTL is how long a finished async job and its buffered
	// results are retained before reaping (a reaped job answers 404); <=0
	// selects 15 minutes.
	JobResultTTL time.Duration
	// VolatileJobs opts out of job durability: with a CacheDir the engine
	// defaults to a write-ahead submission log under <CacheDir>/jobs (jobs
	// survive a restart: finished ones are re-served, interrupted ones
	// re-run); setting this keeps job state in-process only.
	VolatileJobs bool
	// JobWALNoSync disables the fsync-on-submit of the job WAL, trading
	// the machine-crash guarantee for submit latency (a process crash
	// alone loses nothing either way — the page cache survives it).
	JobWALNoSync bool
	// MaxDocBytes caps one document on the NDJSON stream routes (/stream,
	// /complete/stream, async job chunks share the same line-length bound);
	// <=0 keeps the MaxDocumentBytes default (64MB). The /check/raw route is
	// never capped — it exists precisely for documents beyond any cap.
	MaxDocBytes int
	// StreamBufBytes is the sliding-window size of the bounded-memory reader
	// path (CheckReader, /check/raw); <=0 selects xmltext.DefaultChunkSize
	// (256KB). X13 (bench.StreamingMemory) prices this knob.
	StreamBufBytes int
	// FS is the filesystem seam under the engine's durable tier — the
	// compiled-schema disk cache, the job WAL, and the receipt anchor log
	// all perform their I/O through it. Nil selects the real filesystem;
	// crash-consistency tests inject a fault-injecting implementation.
	FS faultfs.FS
	// JobStore overrides the job-event store entirely (a custom
	// jobstore.Store implementation — e.g. a shared store in tests, or a
	// future database backend). When set, CacheDir/VolatileJobs do not
	// influence job persistence, but a durable JobStore still requires a
	// CacheDir: recovered results are re-served from write-through files
	// under <CacheDir>/jobs/results, and without that directory every
	// replayed done job would degrade to failed (Open rejects the
	// combination). The engine owns the store and closes it.
	JobStore jobstore.Store
}

// Engine is the concurrent checking front end: a sharded schema store plus
// a worker pool configuration and lifetime counters.
type Engine struct {
	store       SchemaStore
	reg         *Registry // the built-in store, when store is one
	jobs        *jobs.Manager
	workers     int
	pvOnly      bool
	noFastPath  bool // Config.DisableFastPath: compile every schema slow-tier only
	maxDocBytes int  // per-document cap on the NDJSON stream routes
	streamBuf   int  // CheckReader sliding-window size; 0 = xmltext default
	// recovery holds the replay outcome when the engine recovered jobs
	// from a persistent store at Open (recovered reports whether it did).
	recovery  jobs.RecoveryStats
	recovered bool
	// sem bounds checking concurrency engine-wide, not per batch: N
	// concurrent CheckBatch calls (pvserve requests) share the same
	// `workers` slots instead of multiplying them.
	sem chan struct{}

	// cacheDir is Config.CacheDir; the receipt anchor log lives under it
	// (lazily opened on the first receipt build). fsys is the filesystem
	// seam (Config.FS) every durable component was built over.
	cacheDir    string
	fsys        faultfs.FS
	instanceID  string
	anchorsOnce sync.Once
	anchors     *receipt.AnchorLog
	anchorsErr  error

	docs      atomic.Int64
	pv        atomic.Int64
	valid     atomic.Int64
	malformed atomic.Int64
	routing   atomic.Int64
	inserted  atomic.Int64
	bytes     atomic.Int64
	busyNanos atomic.Int64 // wall-clock spent inside CheckBatch calls

	// fastHits / fastFallbacks count elements settled entirely on the DFA
	// fast path vs elements that fell back to a PV recognizer, across all
	// checking paths.
	fastHits      atomic.Int64
	fastFallbacks atomic.Int64

	receiptsBuilt    atomic.Int64
	receiptsAnchored atomic.Int64
}

// New builds an engine. It panics when Config.CacheDir is set but cannot
// be opened — only possible with a disk tier configured; use Open to
// handle that error.
func New(cfg Config) *Engine {
	e, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Open builds an engine, reporting a disk-tier cache directory that cannot
// be created or opened as an error.
func Open(cfg Config) (*Engine, error) {
	if cfg.JobStore != nil && cfg.JobStore.Durable() && cfg.CacheDir == "" {
		// Fail fast: without the write-through results directory a durable
		// store's recovery degrades every replayed done job to failed
		// ("recovered results incomplete") and re-runs interrupted ones
		// from scratch — durability the caller asked for but would not get.
		return nil, errors.New("engine: a durable JobStore requires CacheDir (recovered results are re-served from <CacheDir>/jobs/results)")
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS
	}
	var disk *schemastore.Cache
	if cfg.CacheDir != "" {
		var err error
		if disk, err = schemastore.OpenFS(cfg.CacheDir, cfg.FS); err != nil {
			return nil, err
		}
	}
	reg := NewShardedRegistry(cfg.CacheSize, cfg.Shards, disk)
	// Async job results spill next to the schema cache when a disk tier is
	// configured; memory-only engines buffer results in memory.
	var spill string
	if cfg.CacheDir != "" {
		spill = filepath.Join(cfg.CacheDir, "jobs")
	}
	// Job persistence: an explicit JobStore wins; otherwise a disk tier
	// implies the write-ahead log under <CacheDir>/jobs (unless opted out),
	// and a memory-only engine keeps the in-process default.
	store := cfg.JobStore
	if store == nil && cfg.CacheDir != "" && !cfg.VolatileJobs {
		ws, err := walstore.Open(spill, walstore.Options{NoSync: cfg.JobWALNoSync, FS: cfg.FS})
		if err != nil {
			return nil, fmt.Errorf("engine: opening job WAL: %w", err)
		}
		store = ws
	}
	e := &Engine{
		store: reg,
		reg:   reg,
		jobs: jobs.NewManager(jobs.Config{
			Workers:    cfg.JobWorkers,
			QueueDepth: cfg.JobQueueDepth,
			ResultTTL:  cfg.JobResultTTL,
			SpillDir:   spill,
			Store:      store,
		}),
		workers:     w,
		pvOnly:      cfg.PVOnly,
		noFastPath:  cfg.DisableFastPath,
		maxDocBytes: cfg.MaxDocBytes,
		streamBuf:   cfg.StreamBufBytes,
		sem:         make(chan struct{}, w),
		cacheDir:    cfg.CacheDir,
		fsys:        cfg.FS,
		instanceID:  newInstanceID(),
	}
	if e.maxDocBytes <= 0 {
		e.maxDocBytes = MaxDocumentBytes
	}
	if store != nil {
		// Replay whatever the store retained before accepting any new
		// submission: finished jobs come back servable, interrupted ones
		// re-queue (their runners rebuilt from the persisted payloads
		// through the schema registry's refs).
		stats, err := e.jobs.Recover(e.recoverRunner)
		if err != nil {
			return nil, fmt.Errorf("engine: recovering jobs: %w", err)
		}
		e.recovery = stats
		e.recovered = true
	}
	return e, nil
}

// newInstanceID draws the engine's metrics instance label: a short random
// hex tag distinguishing this engine's series from a restarted successor
// scraping into the same Prometheus.
func newInstanceID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// InstanceID returns the engine's metrics instance label — a random hex
// tag drawn at Open.
func (e *Engine) InstanceID() string { return e.instanceID }

// Close stops the engine's async job workers and reaper. Running jobs
// finish their current chunk; queued jobs stop being picked up (on a
// durable store they replay as interrupted after a restart). Batch and
// single-document checking remain usable (they never go through the job
// layer). Close does not wait for running jobs — use Shutdown for a
// bounded drain.
func (e *Engine) Close() {
	e.jobs.Close()
	e.closeAnchors()
}

// Shutdown closes the engine and waits — bounded by ctx — for running
// jobs to finalize and the job store to be released. It returns ctx.Err()
// when the drain outlives the context.
func (e *Engine) Shutdown(ctx context.Context) error {
	err := e.jobs.Shutdown(ctx)
	e.closeAnchors()
	return err
}

// JobRecovery reports the job-replay outcome of Open: the counts of
// re-queued, resumed, re-served and unrecoverable jobs, and whether a
// recovery pass ran at all (it does whenever the engine has a persistent
// job store).
func (e *Engine) JobRecovery() (jobs.RecoveryStats, bool) { return e.recovery, e.recovered }

// Store returns the engine's schema store.
func (e *Engine) Store() SchemaStore { return e.store }

// Registry returns the engine's built-in sharded registry (the default
// SchemaStore).
func (e *Engine) Registry() *Registry { return e.reg }

// Workers returns the configured worker bound.
func (e *Engine) Workers() int { return e.workers }

// Compile resolves a schema through the store (compile-once, sharded LRU,
// optional disk tier). An engine opened with Config.DisableFastPath
// forces the slow tier onto every compilation.
func (e *Engine) Compile(kind SourceKind, src, root string, opts CompileOptions) (*Schema, error) {
	if e.noFastPath {
		opts.DisableFastPath = true
	}
	return e.store.Compile(kind, src, root, opts)
}

// check runs the verdict for one document on a (reusable) stream checker.
// The streaming pass settles well-formedness and potential validity in one
// linear scan; only documents that pass it pay for the tree parse that the
// full-validity bit needs. Both passes read the same bytes (RunBytes +
// ParseBytes).
func (e *Engine) check(s *Schema, c *core.StreamChecker, d Doc) Result {
	src := d.src()
	res := Result{ID: d.ID, Bytes: len(src)}
	err := c.RunBytes(src)
	e.harvestFastPath(c)
	if err != nil {
		if core.IsViolation(err) {
			res.Detail = err.Error()
		} else {
			res.Err = err
		}
		return res
	}
	res.PotentiallyValid = true
	if !e.pvOnly {
		if c.StrictlyValid() {
			// Every element closed in an accepting DFA state: the content
			// is a complete word of its model everywhere, so the document
			// is fully valid and the tree parse has nothing left to
			// decide. This is the fast path's big win on valid-heavy
			// traffic — the whole DOM pass disappears (X15 prices it, the
			// engine differential test pins verdict equality).
			res.Valid = true
			return res
		}
		doc, perr := dom.ParseBytes(src)
		if perr != nil {
			// The stream lexer and the tree parser should agree on
			// well-formedness (the fuzz targets enforce it); if they ever
			// diverge, surface the parse error rather than inventing a
			// PV-but-not-valid verdict CheckString would not produce.
			res.PotentiallyValid = false
			res.Err = perr
			return res
		}
		res.Valid = s.Valid.Validate(doc.Root) == nil
	}
	return res
}

// harvestFastPath folds one finished run's fast-path counters into the
// engine's lifetime totals.
func (e *Engine) harvestFastPath(c *core.StreamChecker) {
	hits, fallbacks := c.FastPathStats()
	if hits != 0 {
		e.fastHits.Add(hits)
	}
	if fallbacks != 0 {
		e.fastFallbacks.Add(fallbacks)
	}
}

// RoutingError marks a failure to route a document to a schema (an
// unknown, ambiguous or malformed schemaRef, or a missing default): a
// request-configuration problem, counted separately from malformed
// documents in all stats.
type RoutingError struct{ msg string }

// Error returns the routing failure's explanation.
func (e *RoutingError) Error() string { return e.msg }

// routingErrf builds a RoutingError.
func routingErrf(format string, args ...any) error {
	return &RoutingError{msg: fmt.Sprintf(format, args...)}
}

// IsRoutingError reports whether err is a schema-routing failure, as
// opposed to a verdict on the document itself.
func IsRoutingError(err error) bool {
	var r *RoutingError
	return errors.As(err, &r)
}

// errNoSchema reports a document that cannot be routed to any schema.
var errNoSchema error = &RoutingError{msg: "engine: document has no schemaRef and the batch has no default schema"}

// refTable is a per-batch resolution of the distinct SchemaRefs appearing
// in a document set; resolving once up front keeps the worker loop free of
// registry traffic.
type refTable struct {
	schemas map[string]*Schema
	errs    map[string]error
}

// resolveRefs builds the ref table for docs (nil when no doc carries a ref).
func (e *Engine) resolveRefs(docs []Doc) *refTable {
	var t *refTable
	for i := range docs {
		ref := docs[i].SchemaRef
		if ref == "" {
			continue
		}
		if t == nil {
			t = &refTable{schemas: map[string]*Schema{}, errs: map[string]error{}}
		}
		if _, ok := t.schemas[ref]; ok {
			continue
		}
		if _, ok := t.errs[ref]; ok {
			continue
		}
		if s, err := e.store.ResolveRef(ref); err != nil {
			t.errs[ref] = err
		} else {
			t.schemas[ref] = s
		}
	}
	return t
}

// schemaFor routes one document: its SchemaRef if set, else the batch
// default.
func (t *refTable) schemaFor(d *Doc, def *Schema) (*Schema, error) {
	if d.SchemaRef != "" {
		if s, ok := t.schemas[d.SchemaRef]; ok {
			return s, nil
		}
		return nil, t.errs[d.SchemaRef]
	}
	if def == nil {
		return nil, errNoSchema
	}
	return def, nil
}

// Check runs one document synchronously on the caller's goroutine (it
// still counts against the engine-wide worker bound). s may be nil when
// the document carries a SchemaRef.
func (e *Engine) Check(s *Schema, d Doc) Result {
	if d.SchemaRef != "" {
		rs, err := e.store.ResolveRef(d.SchemaRef)
		if err != nil {
			res := Result{ID: d.ID, Bytes: d.Size(), Err: err}
			e.account(&res)
			return res
		}
		s = rs
	}
	if s == nil {
		res := Result{ID: d.ID, Bytes: d.Size(), Err: errNoSchema}
		e.account(&res)
		return res
	}
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	c := s.checkers.Get().(*core.StreamChecker)
	res := e.check(s, c, d)
	s.checkers.Put(c)
	e.account(&res)
	return res
}

// countReader counts the bytes an io.Reader delivers, for result accounting
// on the streamed path.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// CheckReader checks one document streamed from r in bounded memory —
// O(element depth + sliding window), independent of document size, with no
// cap. The verdict is potential validity only: the full-validity bit needs
// a tree parse, which is exactly the O(document) cost this path exists to
// avoid (Valid is always false here). Like Check, it counts against the
// engine-wide worker bound and the lifetime counters.
func (e *Engine) CheckReader(s *Schema, id string, r io.Reader) Result {
	if s == nil {
		res := Result{ID: id, Err: errNoSchema}
		e.account(&res)
		return res
	}
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	c := s.checkers.Get().(*core.StreamChecker)
	cr := &countReader{r: r}
	err := c.RunReaderBuffer(cr, e.streamBuf)
	e.harvestFastPath(c)
	s.checkers.Put(c)
	res := Result{ID: id, Bytes: int(cr.n)}
	switch {
	case err == nil:
		res.PotentiallyValid = true
	case core.IsViolation(err):
		res.Detail = err.Error()
	default:
		res.Err = err
	}
	e.account(&res)
	return res
}

// MaxDocBytes returns the per-document cap enforced on the NDJSON stream
// routes (Config.MaxDocBytes, defaulted).
func (e *Engine) MaxDocBytes() int { return e.maxDocBytes }

// runBatch is the shared worker-pool core of CheckBatch and CompleteBatch:
// workers claim documents through an atomic cursor (cheap work stealing:
// large documents do not stall a fixed partition) and write results into
// disjoint slots, so the only synchronization on the hot path is the
// cursor increment. Each worker keeps one pooled resource of type C (a
// stream checker or a completer) per schema it encounters (linear scan —
// batches mix a handful of schemas, not hundreds). Documents that fail
// schema routing are mapped through errResult. Returns the results (Index
// not yet set) and the worker count used.
func runBatch[C any, R any](e *Engine, s *Schema, docs []Doc,
	acquire func(*Schema) C,
	release func(*Schema, C),
	run func(*Schema, C, Doc) R,
	errResult func(*Doc, error) R,
) ([]R, int) {
	results := make([]R, len(docs))
	refs := e.resolveRefs(docs)
	workers := e.workers
	if workers > len(docs) {
		workers = len(docs)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.sem <- struct{}{} // engine-wide bound across concurrent batches
			defer func() { <-e.sem }()
			var schemas []*Schema
			var held []C
			defer func() {
				for i, sc := range schemas {
					release(sc, held[i])
				}
			}()
			resourceFor := func(sc *Schema) C {
				for i, x := range schemas {
					if x == sc {
						return held[i]
					}
				}
				c := acquire(sc)
				schemas = append(schemas, sc)
				held = append(held, c)
				return c
			}
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				d := &docs[i]
				sc, err := refs.schemaFor(d, s)
				if err != nil {
					results[i] = errResult(d, err)
					continue
				}
				results[i] = run(sc, resourceFor(sc), docs[i])
			}
		}()
	}
	wg.Wait()
	return results, workers
}

// finishBatch computes per-batch throughput and folds the stats into the
// lifetime counters.
func (e *Engine) finishBatch(stats *BatchStats, start time.Time) {
	stats.Elapsed = time.Since(start)
	if secs := stats.Elapsed.Seconds(); secs > 0 {
		stats.DocsPerSec = float64(stats.Docs) / secs
		stats.MBPerSec = float64(stats.Bytes) / (1 << 20) / secs
	}
	e.accountBatch(*stats)
}

// CheckBatch fans docs out over the engine's worker pool and returns one
// Result per input, in input order, plus aggregate stats.
//
// Documents carrying a SchemaRef are routed to the referenced
// registry-cached schema, so one batch can mix schemas in a single round
// trip; s is the default for documents without a ref and may be nil when
// every document carries one. Each worker keeps one pooled checker per
// schema it encounters.
func (e *Engine) CheckBatch(s *Schema, docs []Doc) ([]Result, BatchStats) {
	start := time.Now()
	results, workers := runBatch(e, s, docs,
		func(sc *Schema) *core.StreamChecker { return sc.checkers.Get().(*core.StreamChecker) },
		func(sc *Schema, c *core.StreamChecker) { sc.checkers.Put(c) },
		e.check,
		func(d *Doc, err error) Result { return Result{ID: d.ID, Bytes: d.Size(), Err: err} },
	)
	stats := BatchStats{Docs: len(docs), Workers: workers}
	for i := range results {
		results[i].Index = i
		stats.tally(&results[i])
	}
	e.finishBatch(&stats, start)
	return results, stats
}

// CheckAll is CheckBatch over bare XML strings; IDs are the input indices.
func (e *Engine) CheckAll(s *Schema, xmls []string) ([]Result, BatchStats) {
	docs := make([]Doc, len(xmls))
	for i, x := range xmls {
		docs[i] = Doc{ID: strconv.Itoa(i), Content: x}
	}
	return e.CheckBatch(s, docs)
}

func (e *Engine) account(r *Result) {
	bs := BatchStats{Docs: 1}
	bs.tally(r)
	e.accountBatch(bs)
}

func (e *Engine) accountBatch(s BatchStats) {
	e.docs.Add(int64(s.Docs))
	e.pv.Add(int64(s.PotentiallyValid))
	e.valid.Add(int64(s.Valid))
	e.malformed.Add(int64(s.Malformed))
	e.routing.Add(int64(s.RoutingErrors))
	e.inserted.Add(s.Inserted)
	e.bytes.Add(s.Bytes)
	e.busyNanos.Add(s.Elapsed.Nanoseconds())
}

// Stats is a lifetime snapshot of engine counters. Inserted accumulates
// the elements added by the completion workload.
type Stats struct {
	Workers          int   `json:"workers"`
	Docs             int64 `json:"docs"`
	PotentiallyValid int64 `json:"potentiallyValid"`
	Valid            int64 `json:"valid"`
	Malformed        int64 `json:"malformed"`
	RoutingErrors    int64 `json:"routingErrors"`
	Inserted         int64 `json:"inserted"`
	Bytes            int64 `json:"bytes"`
	BusyNanos        int64 `json:"busyNanos"`
	// ReceiptsBuilt and ReceiptsAnchored count verdict receipts committed
	// and anchor-log records written.
	ReceiptsBuilt    int64 `json:"receiptsBuilt"`
	ReceiptsAnchored int64 `json:"receiptsAnchored"`
	// FastPathHits counts elements settled entirely on the content-model
	// DFA fast path; FastPathFallbacks counts elements that fell back to
	// the PV recognizer. DFAStates gauges the compiled DFA states resident
	// across the schema store.
	FastPathHits      int64 `json:"fastPathHits"`
	FastPathFallbacks int64 `json:"fastPathFallbacks"`
	DFAStates         int64 `json:"dfaStates"`
}

// Stats returns the engine's lifetime counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:           e.workers,
		Docs:              e.docs.Load(),
		PotentiallyValid:  e.pv.Load(),
		Valid:             e.valid.Load(),
		Malformed:         e.malformed.Load(),
		RoutingErrors:     e.routing.Load(),
		Inserted:          e.inserted.Load(),
		Bytes:             e.bytes.Load(),
		BusyNanos:         e.busyNanos.Load(),
		ReceiptsBuilt:     e.receiptsBuilt.Load(),
		ReceiptsAnchored:  e.receiptsAnchored.Load(),
		FastPathHits:      e.fastHits.Load(),
		FastPathFallbacks: e.fastFallbacks.Load(),
		DFAStates:         e.store.Stats().DFAStates,
	}
}
