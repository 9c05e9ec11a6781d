// Package pv is a potential-validity toolkit for document-centric XML — a
// from-scratch Go reproduction of:
//
//	Ionut E. Iacob, Alex Dekhtyar, Michael I. Dekhtyar.
//	"On Potential Validity of Document-Centric XML Documents." ICDE 2006.
//
// An XML document w is *potentially valid* with respect to a DTD T and root
// element r if some extension of w — obtained by inserting matching tag
// pairs only, never deleting, renaming or reordering anything — is valid.
// Potential validity is what a document-centric XML editor needs to check
// while markup is being layered over pre-existing text: intermediate states
// are almost never valid, but they must stay completable.
//
// The package compiles a DTD into a Schema and offers:
//
//   - whole-document checking (the paper's Problem PV), in tree and
//     streaming form, in time linear in document size (Theorem 4);
//   - per-element content checking (Problem ECPV) via the paper's
//     ECRecognizer over a DAG model of the DTD, with the depth bound that
//     tames PV-strong recursive DTDs;
//   - O(1) incremental guards for editing operations (Theorem 2,
//     Proposition 3) and a guarded editing Session;
//   - full (standard) DTD validation, for when the encoding is finished;
//   - DTD analysis: recursion classification (non-recursive / PV-weak /
//     PV-strong), reachability, usability and determinism lint.
//
// Quick start:
//
//	schema, err := pv.CompileDTD(dtdSource, "r", pv.Options{})
//	...
//	res, err := schema.CheckString("<r><a><b>A quick brown</b>...</r>")
//	if res.PotentiallyValid { ... }
package pv

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/complete"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/reach"
	"repro/internal/receipt"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// Options configures schema compilation.
type Options struct {
	// MaxDepth bounds the depth of hypothetical extension documents
	// considered when the DTD is PV-strong recursive (Section 4.3.1 of the
	// paper). Zero selects the default (16). Irrelevant for non-PV-strong
	// DTDs, where the checker is complete.
	MaxDepth int
	// IgnoreWhitespaceText makes whitespace-only text nodes invisible to
	// the potential-validity checker — convenient for pretty-printed
	// documents. Document-centric editing normally wants false.
	IgnoreWhitespaceText bool
	// AllowAnyRoot accepts any declared element as document root.
	AllowAnyRoot bool
	// DisableFastPath skips compiling the per-element content-model DFA
	// tables, so streaming checks run on the PV recognizer alone. Verdicts
	// are identical either way; the knob exists for apples-to-apples
	// benchmarking and as an operational escape hatch.
	DisableFastPath bool
}

// Class is the paper's DTD classification (Definitions 6-8).
type Class = reach.Class

// Re-exported classification constants.
const (
	NonRecursive      = reach.NonRecursive
	PVWeakRecursive   = reach.PVWeakRecursive
	PVStrongRecursive = reach.PVStrongRecursive
)

// Schema is a DTD compiled for potential-validity checking and validation.
type Schema struct {
	dtd   *dtd.DTD
	root  string
	core  *core.Schema
	valid *validator.Validator
	eng   *engine.Schema
}

// completer fetches a pooled completer from the engine artifact (every
// Schema carries one); return it with putCompleter. Completers memoize
// per-schema state that is expensive to rebuild, and the engine pool is
// shared by registry-cached schemas, so warm completers survive cache
// hits.
func (s *Schema) completer() *complete.Completer { return s.eng.Completer() }

// putCompleter returns a pooled completer.
func (s *Schema) putCompleter(c *complete.Completer) { s.eng.PutCompleter(c) }

// ParseDTD parses DTD source text (internal/external subset syntax).
func ParseDTD(src string) (*DTD, error) {
	d, err := dtd.Parse(src)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// DTD is a parsed Document Type Definition.
type DTD struct{ d *dtd.DTD }

// Names returns the declared element names in declaration order.
func (d *DTD) Names() []string { return d.d.Names() }

// String renders the DTD back in declaration syntax.
func (d *DTD) String() string { return d.d.String() }

// Size returns the paper's k measure: total element occurrences across
// content models plus one per declaration.
func (d *DTD) Size() int { return d.d.Size() }

// Lint reports structural problems: undeclared references and XML 1.0
// determinism violations. An empty slice means the DTD is clean.
func (d *DTD) Lint() []string { return d.d.Validate() }

// Compile prepares the DTD for checking against the given root element.
func (d *DTD) Compile(root string, opts Options) (*Schema, error) {
	c, err := core.Compile(d.d, root, core.Options{
		MaxDepth:             opts.MaxDepth,
		IgnoreWhitespaceText: opts.IgnoreWhitespaceText,
		AllowAnyRoot:         opts.AllowAnyRoot,
		DisableFastPath:      opts.DisableFastPath,
	})
	if err != nil {
		return nil, err
	}
	v, err := validator.New(d.d, root)
	if err != nil {
		return nil, err
	}
	return &Schema{dtd: d.d, root: root, core: c, valid: v, eng: engine.NewSchema(c, v)}, nil
}

// ParseXSD imports a W3C XML Schema (XSD) document, supported subset per
// internal/xsd, into the same representation as ParseDTD — the paper's
// Section 2 observation that potential validity only depends on the
// structural content model, whatever the schema language.
func ParseXSD(src string) (*DTD, error) {
	d, err := xsd.Parse(src)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// CompileXSD parses an XSD document and compiles it in one step.
func CompileXSD(src, root string, opts Options) (*Schema, error) {
	d, err := ParseXSD(src)
	if err != nil {
		return nil, err
	}
	return d.Compile(root, opts)
}

// CompileDTD parses and compiles in one step.
func CompileDTD(src, root string, opts Options) (*Schema, error) {
	d, err := ParseDTD(src)
	if err != nil {
		return nil, err
	}
	return d.Compile(root, opts)
}

// CompileDTDFile reads, parses and compiles a DTD file.
func CompileDTDFile(path, root string, opts Options) (*Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CompileDTD(string(data), root, opts)
}

// MustCompileDTD is CompileDTD that panics on error; for tests and
// examples.
func MustCompileDTD(src, root string, opts Options) *Schema {
	s, err := CompileDTD(src, root, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Root returns the designated root element.
func (s *Schema) Root() string { return s.root }

// Class returns the DTD's recursion classification.
func (s *Schema) Class() Class { return s.core.Class() }

// Result is the outcome of a potential-validity check.
type Result struct {
	// PotentiallyValid is the Problem PV verdict.
	PotentiallyValid bool
	// Valid is the standard validity verdict (Valid implies
	// PotentiallyValid).
	Valid bool
	// Detail explains the first potential-validity violation; empty when
	// PotentiallyValid.
	Detail string
}

// CheckString is CheckBytes for a string, converted once. The returned
// error covers lexical/well-formedness problems only; schema verdicts are
// in the Result.
func (s *Schema) CheckString(xml string) (Result, error) { return s.CheckBytes([]byte(xml)) }

// CheckDocument checks a parsed document.
func (s *Schema) CheckDocument(doc *Document) Result { return s.checkRoot(doc.root) }

func (s *Schema) checkRoot(root *dom.Node) Result {
	res := Result{}
	if v := s.core.CheckDocument(root); v == nil {
		res.PotentiallyValid = true
	} else {
		res.Detail = v.Reason
	}
	if res.PotentiallyValid && s.valid.Validate(root) == nil {
		res.Valid = true
	}
	return res
}

// CheckBytes parses an XML document held as bytes and checks it, without
// ever copying the document into a string.
func (s *Schema) CheckBytes(xml []byte) (Result, error) {
	doc, err := dom.ParseBytes(xml)
	if err != nil {
		return Result{}, err
	}
	return s.checkRoot(doc.Root), nil
}

// CheckStream is CheckStreamBytes for a string, converted once.
func (s *Schema) CheckStream(xml string) error { return s.CheckStreamBytes([]byte(xml)) }

// CheckStreamBytes checks a document in a single streaming pass without
// building a tree — the recommended mode for large documents. Token names
// and data are subslices of xml, element names resolve through the
// schema's interned-name table, and an entity-free document is checked
// with no per-token allocation. It returns nil when the document is
// potentially valid.
func (s *Schema) CheckStreamBytes(xml []byte) error { return s.core.CheckStreamBytes(xml) }

// CheckReader is CheckStream over an io.Reader: the document is lexed
// through a fixed sliding window and never held in memory, so peak usage is
// O(element depth + window) — typically a few hundred KB — no matter the
// document size. Multi-GB files check at near-disk speed (bench X13); the
// verdict is identical to CheckStreamBytes over the same bytes. It returns
// nil when the document is potentially valid; the error otherwise explains
// the violation, well-formedness failure or read problem.
func (s *Schema) CheckReader(r io.Reader) error { return s.core.CheckReader(r) }

// Ref returns the schema's registry reference (a hex digest of source,
// kind, root and options) when the schema was compiled through an Engine,
// and "" otherwise. Documents in a mixed batch select their schema by this
// reference (any prefix of at least 8 hex digits).
func (s *Schema) Ref() string {
	if s.eng != nil {
		return s.eng.Ref
	}
	return ""
}

// FileChecker checks files one at a time through the byte path, reusing
// one read buffer (and one pooled streaming checker) across calls — file
// checking with one read syscall and no string round trip. Not safe for
// concurrent use; create one per goroutine.
type FileChecker struct {
	s   *Schema
	c   *core.StreamChecker
	buf []byte
}

// NewFileChecker returns a reusable file checker for the schema.
func (s *Schema) NewFileChecker() *FileChecker {
	return &FileChecker{s: s, c: s.core.NewStreamChecker()}
}

// read loads path into the checker's buffer, growing it only when a file
// exceeds every earlier size.
func (fc *FileChecker) read(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := int(info.Size())
	if cap(fc.buf) < n {
		fc.buf = make([]byte, n)
	}
	fc.buf = fc.buf[:n]
	if _, err := io.ReadFull(f, fc.buf); err != nil {
		return nil, err
	}
	return fc.buf, nil
}

// Check reads and checks one file. The semantics mirror CheckString: the
// error covers I/O and lexical/well-formedness problems only, verdicts are
// in the Result.
func (fc *FileChecker) Check(path string) (Result, error) {
	data, err := fc.read(path)
	if err != nil {
		return Result{}, err
	}
	res := Result{}
	if err := fc.c.RunBytes(data); err != nil {
		if !core.IsViolation(err) {
			return Result{}, err
		}
		res.Detail = err.Error()
		return res, nil
	}
	res.PotentiallyValid = true
	doc, err := dom.ParseBytes(data)
	if err != nil {
		return Result{}, err
	}
	res.Valid = fc.s.valid.Validate(doc.Root) == nil
	return res, nil
}

// CheckStream streams one file through the byte path and returns the
// potential-validity verdict only (no tree parse, no full-validity bit) —
// the fastest per-file mode.
func (fc *FileChecker) CheckStream(path string) error {
	data, err := fc.read(path)
	if err != nil {
		return err
	}
	return fc.c.RunBytes(data)
}

// Validate runs standard (full) DTD validation: the check for finished
// encodings. It returns nil when the document is valid.
func (s *Schema) Validate(doc *Document) error { return s.valid.Validate(doc.root) }

// ValidateString parses and fully validates an XML string.
func (s *Schema) ValidateString(xml string) error { return s.valid.ValidateString(xml) }

// CanInsertText reports whether a new text node may be created under the
// named element in a potentially valid document — the O(1) check of
// Proposition 3.
func (s *Schema) CanInsertText(element string) bool {
	return s.core.LT.Has(element) && s.core.LT.ReachesPCDATA(element)
}

// Reachable reports whether element "to" may occur (at any depth) inside
// element "from" — the reachability lookup of Definition 5.
func (s *Schema) Reachable(from, to string) bool { return s.core.LT.Reachable(from, to) }

// ElementClass returns the recursion classification of one element.
func (s *Schema) ElementClass(name string) Class { return s.core.LT.ElementClass(name) }

// Complete synthesizes a valid extension of a potentially valid document —
// the constructive counterpart of Definition 3 (and of the paper's
// Figure 3, where two <d> insertions complete Example 1's s). It returns a
// fresh document (the input is untouched) and the number of elements
// inserted. It fails if the document is not potentially valid within the
// schema's depth bound. Completing an already-valid document is the
// identity: zero insertions and an unchanged serialization.
func (s *Schema) Complete(doc *Document) (*Document, int, error) {
	c := s.completer()
	ext, inserted, err := c.Complete(doc.root)
	s.putCompleter(c)
	if err != nil {
		return nil, 0, err
	}
	return &Document{root: ext}, inserted, nil
}

// Diff is the structured outcome of one completion: inserted count,
// per-insertion path/index/name records, and the completed document's
// serialization. See internal/diff for the path grammar.
type Diff = diff.Diff

// Insertion is one inserted element's path/position/name record inside a
// Diff.
type Insertion = diff.Insertion

// CompleteResult is the outcome of one batched completion (pv.Engine's
// CompleteBatch). Err covers lexical/well-formedness and routing problems;
// Detail explains a not-potentially-valid verdict; otherwise Output holds
// the completed document and Inserted/Insertions describe the edit.
type CompleteResult = engine.CompleteResult

// CompleteDiff completes doc and returns the structured diff alongside the
// completed document — the library twin of the engine's /complete routes.
// A Document holds the root subtree only, so the diff's serialization is
// root-level; CompleteBytes preserves prolog/epilog nodes too.
func (s *Schema) CompleteDiff(doc *Document) (*Document, *Diff, error) {
	c := s.completer()
	ext, nodes, err := c.CompleteTracked(doc.root)
	s.putCompleter(c)
	if err != nil {
		return nil, nil, err
	}
	return &Document{root: ext}, diff.Compute(ext, nodes), nil
}

// CompleteBytes parses an XML document held as bytes, completes it, and
// returns the completed serialization plus the structured diff — the
// byte-path completion entry. The output is serialized at document level,
// so prolog and epilog comments/PIs (including an XML declaration)
// survive. The returned error covers lexical/well-formedness problems and
// not-potentially-valid inputs.
func (s *Schema) CompleteBytes(xml []byte) ([]byte, *Diff, error) {
	parsed, err := dom.ParseBytes(xml)
	if err != nil {
		return nil, nil, err
	}
	c := s.completer()
	ext, nodes, err := c.CompleteTracked(parsed.Root)
	s.putCompleter(c)
	if err != nil {
		return nil, nil, err
	}
	parsed.Root = ext
	buf := parsed.AppendXML(nil)
	d := diff.ComputeDoc(ext, nodes, string(buf))
	return buf, d, nil
}

// Info summarizes the compiled schema for display.
func (s *Schema) Info() string {
	return fmt.Sprintf("root <%s>, %d elements, k=%d, class %s, depth bound %d",
		s.root, len(s.dtd.Order), s.dtd.Size(), s.Class(), s.core.EffectiveDepth())
}

// Engine is the concurrent checking front end: a schema registry that
// compiles sources once (keyed by content hash, root and options, under an
// LRU bound) plus a worker pool that fans batches of documents out over
// GOMAXPROCS-bounded workers, reusing per-worker streaming-checker state.
// It is the programmatic face of cmd/pvserve and the `pvcheck batch`
// subcommand. An Engine is safe for concurrent use.
type Engine struct{ e *engine.Engine }

// EngineConfig parameterizes NewEngine. The zero value is a good default:
// GOMAXPROCS workers, a 64-schema cache striped over 8 shards, both
// verdict bits computed, no disk cache.
type EngineConfig struct {
	// Workers bounds batch concurrency; <=0 selects GOMAXPROCS.
	Workers int
	// SchemaCacheSize bounds the compiled-schema store's total in-memory
	// capacity; <=0 selects 64.
	SchemaCacheSize int
	// SchemaCacheShards is the store's lock-stripe count; <=0 selects 8.
	// Concurrent compilation and ref-routing traffic contends per shard,
	// not on one mutex.
	SchemaCacheShards int
	// SchemaCacheDir enables the disk tier: compiled schemas persist as
	// content-addressed blobs under this directory, so later engines (and
	// process restarts) rehydrate them instead of recompiling. Empty
	// disables the tier.
	SchemaCacheDir string
	// PVOnly skips the full-validity bit, which needs a tree parse of each
	// potentially valid document — the fastest mode for firehose filtering.
	PVOnly bool
	// MaxDocBytes caps one document on the HTTP NDJSON stream routes
	// (/check/stream, /complete/stream); <=0 keeps the 64MB default. The
	// /check/raw route and CheckReader are never capped.
	MaxDocBytes int
	// StreamBufBytes is the sliding-window size of the bounded-memory
	// reader path (CheckReader, /check/raw); <=0 selects the 256KB default.
	StreamBufBytes int
	// JobWorkers bounds how many async jobs (SubmitBatch /
	// SubmitCompleteBatch) execute concurrently; each job's chunks still
	// share the engine-wide Workers bound. <=0 selects 2.
	JobWorkers int
	// JobQueueDepth bounds async jobs accepted but not yet running; a full
	// queue makes submission fail with ErrJobQueueFull. <=0 selects 64.
	JobQueueDepth int
	// JobResultTTL is how long a finished async job and its buffered
	// results are retained before reaping; <=0 selects 15 minutes.
	JobResultTTL time.Duration
	// VolatileJobs keeps async jobs in memory even when SchemaCacheDir is
	// set. By default a disk-backed engine records every submission in a
	// write-ahead log under <SchemaCacheDir>/jobs, so a restarted engine
	// re-serves finished jobs and re-runs interrupted ones.
	VolatileJobs bool
	// JobWALNoSync skips the per-submission fsync of the job write-ahead
	// log: faster accepts, and a process kill still loses nothing — only a
	// machine crash can drop the un-synced tail.
	JobWALNoSync bool
}

// Doc is one batch input: an identifier (path, queue key, anything) plus
// the XML content — as a string (Content) or zero-copy bytes (Bytes).
// Setting SchemaRef (a prefix of another Schema's Ref) routes the document
// to that registry-cached schema, so one CheckBatch can carry a mixed
// multi-schema firehose; documents without a ref use the batch's schema.
type Doc = engine.Doc

// BatchResult is the verdict for one batch document. Err is set for
// lexical/well-formedness problems (no verdict); otherwise
// PotentiallyValid/Valid carry the verdict and Detail explains the first
// potential-validity violation.
type BatchResult = engine.Result

// BatchStats aggregates one CheckBatch call (counts, bytes, wall-clock,
// throughput).
type BatchStats = engine.BatchStats

// EngineStats is an engine's lifetime counter snapshot.
type EngineStats = engine.Stats

// RegistryStats is a schema-registry counter snapshot.
type RegistryStats = engine.RegistryStats

// NewEngine builds a concurrent checking engine. It panics when
// SchemaCacheDir is set but cannot be created or opened; use OpenEngine to
// handle that error (a zero-value config never fails).
func NewEngine(cfg EngineConfig) *Engine {
	e, err := OpenEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// OpenEngine builds a concurrent checking engine, reporting a disk cache
// directory that cannot be created or opened as an error.
func OpenEngine(cfg EngineConfig) (*Engine, error) {
	e, err := engine.Open(engine.Config{
		Workers:        cfg.Workers,
		CacheSize:      cfg.SchemaCacheSize,
		Shards:         cfg.SchemaCacheShards,
		CacheDir:       cfg.SchemaCacheDir,
		PVOnly:         cfg.PVOnly,
		MaxDocBytes:    cfg.MaxDocBytes,
		StreamBufBytes: cfg.StreamBufBytes,
		JobWorkers:     cfg.JobWorkers,
		JobQueueDepth:  cfg.JobQueueDepth,
		JobResultTTL:   cfg.JobResultTTL,
		VolatileJobs:   cfg.VolatileJobs,
		JobWALNoSync:   cfg.JobWALNoSync,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// engineOptions converts public Options to the registry's key options.
func engineOptions(opts Options) engine.CompileOptions {
	return engine.CompileOptions{
		MaxDepth:             opts.MaxDepth,
		IgnoreWhitespaceText: opts.IgnoreWhitespaceText,
		AllowAnyRoot:         opts.AllowAnyRoot,
		DisableFastPath:      opts.DisableFastPath,
	}
}

// wrapEngineSchema rebuilds the thin public wrapper around a cached
// artifact; the heavy state (core, validator, checker and completer
// pools) is shared.
func wrapEngineSchema(es *engine.Schema) *Schema {
	return &Schema{dtd: es.Core.DTD, root: es.Core.Root, core: es.Core, valid: es.Valid, eng: es}
}

// CompileDTD resolves a DTD through the engine's registry: the first call
// for a given (source, root, options) compiles, subsequent calls hit the
// cache.
func (e *Engine) CompileDTD(src, root string, opts Options) (*Schema, error) {
	es, err := e.e.Compile(engine.DTDSource, src, root, engineOptions(opts))
	if err != nil {
		return nil, err
	}
	return wrapEngineSchema(es), nil
}

// CompileXSD is CompileDTD for the supported XML Schema subset.
func (e *Engine) CompileXSD(src, root string, opts Options) (*Schema, error) {
	es, err := e.e.Compile(engine.XSDSource, src, root, engineOptions(opts))
	if err != nil {
		return nil, err
	}
	return wrapEngineSchema(es), nil
}

// CheckBatch fans docs out over the engine's worker pool and returns one
// result per input, in input order, plus aggregate stats. Verdicts are
// identical to calling Schema.CheckString (or CheckBytes) per document
// sequentially. Documents carrying a SchemaRef are routed to the
// referenced schema; s covers the rest and may be nil when every document
// routes itself.
func (e *Engine) CheckBatch(s *Schema, docs []Doc) ([]BatchResult, BatchStats) {
	return e.e.CheckBatch(engSchema(s), docs)
}

// CheckAll is CheckBatch over bare XML strings.
func (e *Engine) CheckAll(s *Schema, xmls []string) ([]BatchResult, BatchStats) {
	return e.e.CheckAll(engSchema(s), xmls)
}

// Check runs one document synchronously on the caller's goroutine. s may
// be nil when the document routes itself by SchemaRef.
func (e *Engine) Check(s *Schema, d Doc) BatchResult { return e.e.Check(engSchema(s), d) }

// CheckReader checks one document streamed from r in bounded memory —
// O(element depth + sliding window) regardless of size, with no cap; the
// engine-side twin of Schema.CheckReader (HTTP: POST /check/raw). The
// verdict is potential validity only: the full-validity bit would need a
// tree parse, which is exactly the O(document) cost this path avoids. It
// counts against the engine's worker bound and lifetime stats.
func (e *Engine) CheckReader(s *Schema, id string, r io.Reader) BatchResult {
	return e.e.CheckReader(engSchema(s), id, r)
}

// CompleteBatch fans docs out over the engine's worker pool, completing
// each potentially valid document into a valid one, and returns one
// CompleteResult per input, in input order, plus aggregate stats (the
// completion twin of CheckBatch, including SchemaRef routing). withDiff
// asks for per-insertion records in addition to the completed output.
// Outputs and inserted counts are identical to sequential per-document
// completion.
func (e *Engine) CompleteBatch(s *Schema, docs []Doc, withDiff bool) ([]CompleteResult, BatchStats) {
	return e.e.CompleteBatch(engSchema(s), docs, withDiff)
}

// Complete runs one document's completion synchronously on the caller's
// goroutine. s may be nil when the document routes itself by SchemaRef.
func (e *Engine) Complete(s *Schema, d Doc, withDiff bool) CompleteResult {
	return e.e.Complete(engSchema(s), d, withDiff)
}

// engSchema unwraps the engine artifact, tolerating a nil schema (the
// SchemaRef self-routing mode).
func engSchema(s *Schema) *engine.Schema {
	if s == nil {
		return nil
	}
	return s.eng
}

// Job is one asynchronously submitted batch: identity, lifecycle state
// (queued → running → done|failed|canceled), progress counters and the
// retained NDJSON results. See internal/jobs for the machinery.
type Job = jobs.Job

// JobInfo is a job snapshot (state, progress, timestamps) — the wire form
// of GET /jobs/{id}.
type JobInfo = jobs.Info

// JobStats snapshots the engine's job queue: queued/running gauges plus
// submitted/completed/failed/canceled/rejected/reaped lifetime counters.
type JobStats = jobs.Stats

// JobRecoveryStats is the outcome of a job write-ahead-log replay: how
// many interrupted jobs were re-queued from scratch, resumed at a chunk
// boundary, re-served as already finished, or found unrecoverable.
type JobRecoveryStats = jobs.RecoveryStats

// ErrJobQueueFull rejects SubmitBatch/SubmitCompleteBatch when the job
// queue is at capacity (HTTP 429 on the wire).
var ErrJobQueueFull = engine.ErrJobQueueFull

// ErrJobNotFound reports an unknown — or already reaped — job id from
// CancelJob (HTTP 404 on the wire).
var ErrJobNotFound = jobs.ErrNotFound

// SubmitBatch enqueues docs for asynchronous checking and returns the
// accepted job without waiting for any verdict — the async twin of
// CheckBatch, with identical per-document verdicts. Poll Job.Info (or wait
// on Job.Done) for progress; stream the verdicts with Job.WriteResults
// once it finishes. s is the default schema for documents without a
// SchemaRef and may be nil when every document routes itself. Fails with
// ErrJobQueueFull when the queue is at capacity. The docs slice is
// retained until the job reaches a terminal state (then released, not
// held for the retention TTL); do not mutate it after submission.
func (e *Engine) SubmitBatch(s *Schema, docs []Doc) (*Job, error) {
	return e.e.SubmitCheckBatch(engSchema(s), docs)
}

// SubmitCompleteBatch enqueues docs for asynchronous completion — the
// async twin of CompleteBatch. Each retained NDJSON line is a /complete
// result object.
func (e *Engine) SubmitCompleteBatch(s *Schema, docs []Doc, withDiff bool) (*Job, error) {
	return e.e.SubmitCompleteBatch(engSchema(s), docs, withDiff)
}

// Job returns a submitted job by id, while it is retained (finished jobs
// are reaped after EngineConfig.JobResultTTL).
func (e *Engine) Job(id string) (*Job, bool) { return e.e.Jobs().Get(id) }

// JobList snapshots every retained job, newest submission first.
func (e *Engine) JobList() []JobInfo { return e.e.Jobs().List() }

// CancelJob cancels a queued or running job (partial results are kept).
// It reports whether a cancellation was delivered; unknown or reaped ids
// return ErrJobNotFound.
func (e *Engine) CancelJob(id string) (bool, error) { return e.e.Jobs().Cancel(id) }

// RemoveJob drops a finished job right now — freeing its buffered results
// and spill file without waiting for the TTL reaper. Active jobs are not
// removable (cancel first); it reports whether the job was removed.
func (e *Engine) RemoveJob(id string) bool { return e.e.Jobs().Remove(id) }

// JobStats snapshots the job queue's gauges and lifetime counters.
func (e *Engine) JobStats() JobStats { return e.e.Jobs().Stats() }

// JobRecovery reports the write-ahead-log replay outcome of OpenEngine
// and whether a recovery pass ran at all (it does whenever the engine has
// a persistent job store — SchemaCacheDir set and VolatileJobs false).
func (e *Engine) JobRecovery() (JobRecoveryStats, bool) { return e.e.JobRecovery() }

// Close stops the engine's async job workers and reaper; synchronous
// checking and completion remain usable. Running jobs are interrupted
// without waiting (a durable engine re-runs them on the next open); use
// Shutdown to drain them first.
func (e *Engine) Close() { e.e.Close() }

// Shutdown closes the engine and waits — bounded by ctx — for running
// jobs to finalize and the job write-ahead log to be released. It returns
// ctx.Err() when the drain outlives the context; the interrupted jobs
// recover on the next open.
func (e *Engine) Shutdown(ctx context.Context) error { return e.e.Shutdown(ctx) }

// Stats returns the engine's lifetime counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// CacheStats returns the schema store's counters (shard aggregates plus
// disk-tier activity when a cache directory is configured).
func (e *Engine) CacheStats() RegistryStats { return e.e.Store().Stats() }

// Handler returns the engine's HTTP API (the full pvserve surface:
// POST /check, POST /batch (+?async=1&receipt=1), the NDJSON streams, the
// /jobs routes, GET /schemas, GET /stats, GET /metrics, POST /verify),
// for embedding in a larger server.
func (e *Engine) Handler() http.Handler { return engine.NewServer(e.e) }

// Receipt is a batch's verifiable verdict commitment: a Merkle root over
// every (document, schema, verdict, insertions, content digest) tuple
// plus one inclusion proof per document. Verify entries offline with
// VerifyReceipt — no engine, schema or cache required.
type Receipt = engine.Receipt

// DocProof is one document's entry in a Receipt: the committed leaf and
// the inclusion proof binding it to the root.
type DocProof = engine.DocProof

// ReceiptLeaf is the claim a receipt commits for one document.
type ReceiptLeaf = receipt.Leaf

// ReceiptAnchor is one anchored root record from the engine's durable
// anchor log (ReceiptAnchors / GET /receipts).
type ReceiptAnchor = receipt.Anchor

// VerifyReceipt checks one document's inclusion proof against a receipt
// root. It is pure computation over its arguments — stateless and
// offline — so any holder of the root can audit a verdict.
func VerifyReceipt(root string, leaf ReceiptLeaf, proof string) bool {
	return receipt.Verify(root, leaf, proof)
}

// DigestContent returns the canonical content digest committed into
// receipt leaves, for recomputing a leaf's ContentDigest from the
// original document during an audit.
func DigestContent(content []byte) string { return receipt.DigestContent(content) }

// CheckBatchReceipt is CheckBatch plus a verdict receipt: identical
// results and stats, and a Receipt committing every verdict (nil for an
// empty batch). On a disk-backed engine the root is also anchored under
// the cache directory and survives restarts (ReceiptAnchors).
func (e *Engine) CheckBatchReceipt(s *Schema, docs []Doc) ([]BatchResult, BatchStats, *Receipt, error) {
	return e.e.CheckBatchReceipt(engSchema(s), docs)
}

// CompleteBatchReceipt is CompleteBatch plus a verdict receipt — the
// completion twin of CheckBatchReceipt.
func (e *Engine) CompleteBatchReceipt(s *Schema, docs []Doc, withDiff bool) ([]CompleteResult, BatchStats, *Receipt, error) {
	return e.e.CompleteBatchReceipt(engSchema(s), docs, withDiff)
}

// SubmitBatchReceipt is SubmitBatch with a verdict receipt: once the job
// finishes, Job.Receipt carries the full receipt and the root is
// persisted with the job's terminal record.
func (e *Engine) SubmitBatchReceipt(s *Schema, docs []Doc) (*Job, error) {
	return e.e.SubmitCheckBatchReceipt(engSchema(s), docs)
}

// SubmitCompleteBatchReceipt is SubmitCompleteBatch with a verdict
// receipt — the completion twin of SubmitBatchReceipt.
func (e *Engine) SubmitCompleteBatchReceipt(s *Schema, docs []Doc, withDiff bool) (*Job, error) {
	return e.e.SubmitCompleteBatchReceipt(engSchema(s), docs, withDiff)
}

// ReceiptAnchors lists every receipt root the engine (and predecessors on
// the same cache directory) anchored, oldest first; memory-only engines
// return an empty list.
func (e *Engine) ReceiptAnchors() ([]ReceiptAnchor, error) { return e.e.Anchors() }

// WriteMetrics writes the engine's observable state — everything Stats,
// CacheStats, JobStats and JobRecovery report — as a Prometheus
// text-format exposition (the GET /metrics body).
func (e *Engine) WriteMetrics(w io.Writer) error { return e.e.WriteMetrics(w) }
