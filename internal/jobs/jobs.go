// Package jobs is the async ingest layer's job-queue machinery: a bounded
// queue of submitted jobs, a worker pool that drains it, a per-job state
// machine (queued → running → done|failed|canceled), per-job progress
// counters, and result retention with an in-memory cap, optional disk
// spill, and TTL-based reaping of finished jobs.
//
// The package is deliberately engine-agnostic: a job is "total inputs plus
// a Runner that turns a contiguous chunk of them into encoded NDJSON
// lines". The engine layer supplies runners that close over CheckBatch or
// CompleteBatch; tests supply runners that block, fail, or count. Chunked
// execution is what makes progress reporting and cancel-while-running
// possible without teaching the batch workers about jobs: the manager
// checks for cancellation between chunks, so a canceled job stops within
// one chunk's worth of work and keeps the results it already produced.
//
// Job state is persisted through a jobstore.Store: every lifecycle
// transition appends an event, with the Submitted event written ahead of
// queueing. With a durable store (internal/jobs/walstore) a restarted
// manager calls Recover to replay the log — re-serving finished jobs and
// re-queueing interrupted ones from their last durable chunk boundary —
// so jobs outlive the process. The default in-memory store
// (internal/jobs/memstore) preserves the zero-config in-process behavior.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/jobs/jobstore"
	"repro/internal/jobs/memstore"
)

// State is one point in the job lifecycle. The machine is
// queued → running → done|failed|canceled, with one shortcut: a job
// canceled while still queued goes straight to canceled without running.
type State int32

// The job lifecycle states.
const (
	// Queued: accepted, waiting for a job worker.
	Queued State = iota
	// Running: a worker is draining the job's chunks.
	Running
	// Done: every input processed; results complete.
	Done
	// Failed: a chunk returned an error; results up to that chunk are kept.
	Failed
	// Canceled: canceled before or during execution; partial results kept.
	Canceled
)

// String names the state for wire and log use.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Finished reports whether the state is terminal.
func (s State) Finished() bool { return s == Done || s == Failed || s == Canceled }

// parseState maps a wire/log name back to a State — the inverse of
// String, used when replaying persisted terminal records.
func parseState(s string) (State, bool) {
	switch s {
	case "queued":
		return Queued, true
	case "running":
		return Running, true
	case "done":
		return Done, true
	case "failed":
		return Failed, true
	case "canceled":
		return Canceled, true
	}
	return 0, false
}

// Runner produces the results for one contiguous chunk [lo, hi) of a job's
// inputs: one encoded NDJSON line per input, in input order. A non-nil
// error fails the whole job (results of earlier chunks are retained).
type Runner func(lo, hi int) ([][]byte, error)

// Submission describes a persisted job submission replayed from the
// store: the identity and shape of the job plus the submitter-owned
// payload from which its Runner can be rebuilt.
type Submission struct {
	// ID is the persisted job id.
	ID string
	// Kind is the workload kind the job was submitted with.
	Kind string
	// Total is the submitted input count.
	Total int
	// Chunk is the chunk size the job was submitted with.
	Chunk int
	// Payload is the opaque blob the submitter persisted alongside the
	// submission (for the engine: serialized documents + schema refs).
	Payload []byte
}

// RunnerResolver rebuilds a Runner from a persisted submission during
// Recover. An error marks the job Failed (with the error message) rather
// than losing it — the poller sees a terminal state, not a 404.
type RunnerResolver func(sub Submission) (Runner, error)

// RecoveryStats summarizes one Recover pass.
type RecoveryStats struct {
	// Requeued counts interrupted jobs put back on the queue (including
	// the Resumed ones).
	Requeued int `json:"requeued"`
	// Resumed counts requeued jobs restarting from a durable mid-job
	// chunk boundary rather than from input zero.
	Resumed int `json:"resumed"`
	// Served counts finished jobs re-registered for result serving.
	Served int `json:"served"`
	// Failed counts jobs whose Runner could not be rebuilt; they are
	// registered in state failed.
	Failed int `json:"failed"`
}

// Total returns how many persisted jobs the pass brought back.
func (r RecoveryStats) Total() int { return r.Requeued + r.Served + r.Failed }

// ErrQueueFull rejects a submission when the job queue is at capacity —
// the HTTP layer maps it to 429.
var ErrQueueFull = errors.New("jobs: queue is full")

// ErrClosed rejects a submission after the manager has been closed.
var ErrClosed = errors.New("jobs: manager is closed")

// ErrRecoverAfterStart rejects a Recover call after the worker pool has
// started: replay must finish before the first Submit, or recovered ids
// could collide with the startup sweep and live submissions.
var ErrRecoverAfterStart = errors.New("jobs: Recover must be called before the first Submit")

// Defaults for Config zero values.
const (
	// DefaultWorkers is the default number of concurrent jobs.
	DefaultWorkers = 2
	// DefaultQueueDepth is the default bound on jobs accepted but not yet
	// running.
	DefaultQueueDepth = 64
	// DefaultResultTTL is how long a finished job and its results are
	// retained by default.
	DefaultResultTTL = 15 * time.Minute
	// DefaultChunk is the default number of inputs per Runner call — the
	// granularity of progress updates and cancellation.
	DefaultChunk = 64
	// DefaultBufferedResults is the default per-job count of encoded result
	// lines held in memory before spilling to disk (when a spill directory
	// is configured).
	DefaultBufferedResults = 4096
	// DefaultSpillOrphanAge is how stale another instance's spill
	// namespace must be before the startup sweep reclaims it. Live
	// managers refresh their namespace's mtime from the reaper loop (every
	// ≤30s), so an hour of staleness means the owner is gone.
	DefaultSpillOrphanAge = time.Hour
)

// Config parameterizes a Manager. The zero value selects the defaults
// above with no disk spill and in-process-only job state.
type Config struct {
	// Workers bounds how many jobs execute concurrently; <=0 selects
	// DefaultWorkers. Each job's chunks still run through whatever
	// concurrency its Runner provides (for the engine: the engine-wide
	// worker semaphore), so this bounds job-level parallelism, not CPU use.
	Workers int
	// QueueDepth bounds jobs accepted but not yet claimed by a worker; a
	// full queue makes Submit fail with ErrQueueFull. <=0 selects
	// DefaultQueueDepth.
	QueueDepth int
	// ResultTTL is how long a finished job (and its buffered results) is
	// retained before the reaper removes it; <=0 selects DefaultResultTTL.
	ResultTTL time.Duration
	// Chunk is the number of inputs per Runner call; <=0 selects
	// DefaultChunk.
	Chunk int
	// BufferedResults caps the encoded result lines a job holds in memory;
	// past the cap, results spill to a file under SpillDir. <=0 selects
	// DefaultBufferedResults. Without a SpillDir the buffer simply keeps
	// growing (bounded by the submitted batch size). Jobs on a durable
	// store ignore the cap and write results through to disk as produced,
	// so a restart can re-serve or resume them.
	BufferedResults int
	// SpillDir, when non-empty, is the spill root. A manager on a volatile
	// store writes one NDJSON file per overflowing job under a private
	// SpillDir/<instance-id> namespace (created lazily, removed at
	// reap/delete); instance ids — not pids, which containers recycle —
	// plus an age-based sweep let processes share a root without a new
	// process destroying a live sibling's files or leaking a dead one's.
	// A manager on a durable store instead writes every job's results
	// under SpillDir/results, where a restarted manager finds them.
	SpillDir string
	// SpillOrphanAge overrides how stale a foreign spill namespace must be
	// before the startup sweep removes it; <=0 selects
	// DefaultSpillOrphanAge.
	SpillOrphanAge time.Duration
	// Store is the job-event log. nil selects an in-memory store
	// (today's zero-config behavior: job state dies with the process).
	// A durable store — internal/jobs/walstore — makes Submit write-ahead
	// and Recover meaningful. A durable store requires a SpillDir: results
	// are re-served and resumed from the write-through files under
	// SpillDir/results, so without one every recovered done job degrades
	// to failed ("recovered results incomplete") and interrupted jobs
	// restart from input zero.
	Store jobstore.Store
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = DefaultWorkers
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = DefaultQueueDepth
	}
	if out.ResultTTL <= 0 {
		out.ResultTTL = DefaultResultTTL
	}
	if out.Chunk <= 0 {
		out.Chunk = DefaultChunk
	}
	if out.BufferedResults <= 0 {
		out.BufferedResults = DefaultBufferedResults
	}
	if out.SpillOrphanAge <= 0 {
		out.SpillOrphanAge = DefaultSpillOrphanAge
	}
	if out.Store == nil {
		out.Store = memstore.New()
	}
	return out
}

// Manager owns the job table, the bounded queue and the worker pool.
// Workers and the reaper start lazily on the first Submit, so constructing
// a Manager (every engine carries one) costs nothing until async ingest is
// actually used. All methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	store   jobstore.Store
	durable bool
	// instance is this process's random namespace id ("i-" + 12 hex).
	instance string
	// spillDir is this instance's private namespace under cfg.SpillDir
	// (volatile store only; "" when spilling is disabled).
	spillDir string
	// resultsDir is the stable write-through results directory under
	// cfg.SpillDir (durable store only).
	resultsDir string

	mu       sync.Mutex
	cond     *sync.Cond // signals workers: pending grew, or closed
	jobs     map[string]*Job
	pending  []*Job // submitted, not yet claimed by a worker; bounded by QueueDepth
	reserved int    // queue slots held across an in-flight Submit's WAL append
	closed   bool

	start       sync.Once
	poolStarted atomic.Bool
	recoverRan  atomic.Bool // a Recover pass replayed the store (gates the results sweep)
	stop        chan struct{}
	runWG       sync.WaitGroup // running jobs; Add under m.mu while claiming
	storeOnce   sync.Once      // closes the store once, after running jobs drain

	// Lifetime counters (gauges are derived from the job table).
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	rejected  atomic.Int64
	reaped    atomic.Int64
	recovered atomic.Int64
}

// NewManager builds a manager; workers start on first use.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		store:    cfg.Store,
		durable:  cfg.Store.Durable(),
		instance: newInstanceID(),
		jobs:     map[string]*Job{},
		stop:     make(chan struct{}),
	}
	if cfg.SpillDir != "" {
		if m.durable {
			m.resultsDir = filepath.Join(cfg.SpillDir, "results")
		} else {
			m.spillDir = filepath.Join(cfg.SpillDir, m.instance)
		}
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Durable reports whether the manager's store survives the process — i.e.
// whether submissions are written ahead and Recover can bring jobs back.
func (m *Manager) Durable() bool { return m.durable }

// Close stops the worker pool and the reaper. Queued jobs are finalized
// as Canceled (their Done channels close — no waiter is left hanging);
// running jobs finish their current chunk and then observe the shutdown
// as a cancellation. Submissions after Close fail with ErrClosed.
//
// Close does not wait for running jobs and does not persist terminal
// records for the jobs it interrupts: on a durable store they replay as
// interrupted and a restarted manager re-runs them, which is exactly the
// crash-safety contract. Use Shutdown to wait for the drain.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	// The closed flag (flipped exactly once, above) makes Close idempotent
	// without ever starting a pool that no Submit asked for.
	close(m.stop)
	m.cond.Broadcast()
	for _, j := range pending {
		// cancelQueued loses only to a worker that claimed the job before
		// the pending queue was emptied (it will self-cancel between
		// chunks) or to a concurrent Cancel — either way the job still
		// terminates. persist=false: a shutdown is not a user cancel; on a
		// durable store the job must replay as interrupted.
		j.cancelQueued(false)
	}
	// Release the store once the in-flight jobs have observed the stop
	// signal and finalized — their terminal appends must not race Close.
	go func() {
		m.runWG.Wait()
		m.closeStore()
	}()
}

// Shutdown closes the manager and waits — bounded by ctx — until running
// jobs have finalized and the store has been released. It returns
// ctx.Err() if the drain outlives the context (the background drain keeps
// going; the store still closes once it completes).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.Close()
	done := make(chan struct{})
	go func() {
		m.runWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.closeStore()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// closeStore releases the store exactly once.
func (m *Manager) closeStore() {
	m.storeOnce.Do(func() { _ = m.store.Close() })
}

// append stamps and appends one event, best-effort: transition records
// after the write-ahead Submitted append must not fail the job over a log
// hiccup (the in-memory state machine is still authoritative for this
// process's lifetime).
func (m *Manager) append(ev *jobstore.Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	_ = m.store.Append(ev)
}

// startPool sweeps orphaned spill state, then launches the worker pool
// and the reaper (under m.start).
func (m *Manager) startPool() {
	m.poolStarted.Store(true)
	m.sweepSpillDir()
	for i := 0; i < m.cfg.Workers; i++ {
		go m.worker()
	}
	go m.reaper()
}

// sweepSpillDir reclaims spill state orphaned by dead instances: job
// state a restart cannot reach would otherwise accumulate across
// restarts. Runs once, at pool start.
func (m *Manager) sweepSpillDir() {
	if m.cfg.SpillDir == "" {
		return
	}
	m.sweepNamespaces()
	if m.durable && m.recoverRan.Load() {
		m.sweepResults()
	}
}

// sweepNamespaces removes foreign per-instance spill namespaces (and
// legacy pid-keyed ones) that are provably or probably dead. Instance
// namespaces are reclaimed purely by age: a live owner refreshes its
// directory mtime from the reaper loop far more often than the orphan
// age, so staleness means the owner is gone — no pid liveness guesswork,
// which containers break by recycling pids. Legacy numeric directories
// (pre-instance-id layout) are removed when their pid is dead or the
// directory has gone stale; the age fallback is what reclaims them when
// a recycled pid makes the liveness probe lie.
func (m *Manager) sweepNamespaces() {
	ents, err := os.ReadDir(m.cfg.SpillDir)
	if err != nil {
		return // no dir yet (or unreadable): nothing to reclaim
	}
	cutoff := time.Now().Add(-m.cfg.SpillOrphanAge)
	self := os.Getpid()
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		stale := false
		if pid, err := strconv.Atoi(name); err == nil {
			stale = pid != self && (pidDead(pid) || olderThan(ent, cutoff))
		} else if strings.HasPrefix(name, "i-") && name != m.instance {
			stale = olderThan(ent, cutoff)
		}
		if stale {
			_ = os.RemoveAll(filepath.Join(m.cfg.SpillDir, name))
		}
	}
}

// sweepResults prunes write-through result files whose job is no longer
// in the table — leftovers of jobs the log has already retired. It runs
// only when a Recover pass has replayed the store (the recoverRan gate)
// and after that pass registered every replayable job (enforced by
// ErrRecoverAfterStart), so a recovered job's results are never swept. A
// manager whose caller skips Recover leaves prior jobs' result files in
// place — the log still retains their histories, and deleting the files
// would degrade those jobs to failed on the next Recover.
func (m *Manager) sweepResults() {
	ents, err := os.ReadDir(m.resultsDir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		id := strings.TrimSuffix(ent.Name(), ".ndjson")
		m.mu.Lock()
		_, live := m.jobs[id]
		m.mu.Unlock()
		if !live {
			_ = os.Remove(filepath.Join(m.resultsDir, ent.Name()))
		}
	}
}

// olderThan reports whether the entry's mtime is before the cutoff.
func olderThan(ent os.DirEntry, cutoff time.Time) bool {
	fi, err := ent.Info()
	return err == nil && fi.ModTime().Before(cutoff)
}

// pidDead reports whether no process with the given pid exists anymore.
// False negatives (a recycled pid) only postpone reclamation until the
// age-based sweep catches the directory.
func pidDead(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return true
	}
	return errors.Is(p.Signal(syscall.Signal(0)), os.ErrProcessDone)
}

// newID draws a 128-bit random hex job id.
func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// newInstanceID draws the process-lifetime spill namespace id. The "i-"
// prefix keeps instance directories distinguishable from legacy pid
// directories and from the fixed "results"/"wal"/"payload" names sharing
// a durable root.
func newInstanceID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random instance id: %v", err))
	}
	return "i-" + hex.EncodeToString(b[:])
}

// Submit enqueues a job over total inputs executed by run, in chunks. The
// payload is the submitter-owned blob persisted with the submission, from
// which a RunnerResolver can rebuild the Runner after a restart; nil is
// fine when the store is volatile (or the job is acceptable to lose).
//
// The submission is written ahead: the store append — durable before
// return on a durable store — happens before the job becomes visible or
// runnable, so a crash after Submit returns can never lose the job. It
// fails with ErrQueueFull when the queue is at capacity and ErrClosed
// after Close; otherwise the job is Queued and will be claimed by a
// worker. A zero-input job completes without ever invoking run.
func (m *Manager) Submit(kind string, total int, payload []byte, run Runner) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.mu.Unlock()
	m.start.Do(m.startPool)
	j := &Job{
		m:       m,
		id:      newID(),
		kind:    kind,
		total:   total,
		chunk:   m.cfg.Chunk,
		run:     run,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	j.state.Store(int32(Queued))
	j.accepted = j.Info()
	// Reserve the queue slot before the store append so the QueueDepth
	// bound stays exact, but run the append — an fsync on a durable store
	// — outside m.mu so it never stalls Get/List/Stats.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.pending)+m.reserved >= m.cfg.QueueDepth {
		m.mu.Unlock()
		m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	m.reserved++
	m.mu.Unlock()
	err := m.store.Append(&jobstore.Event{
		Type:    jobstore.Submitted,
		Job:     j.id,
		Time:    j.created,
		Kind:    kind,
		Total:   total,
		Chunk:   j.chunk,
		Payload: payload,
	})
	m.mu.Lock()
	m.reserved--
	if err != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: persisting submission: %w", err)
	}
	if m.closed {
		m.mu.Unlock()
		// The write-ahead record exists but the job will never run here;
		// retire it so a restart does not resurrect a submission whose
		// caller got an error.
		m.append(&jobstore.Event{Type: jobstore.Removed, Job: j.id})
		return nil, ErrClosed
	}
	m.pending = append(m.pending, j)
	m.jobs[j.id] = j
	m.mu.Unlock()
	m.cond.Signal()
	m.submitted.Add(1)
	return j, nil
}

// Recover replays the store and rebuilds the job table: finished jobs are
// re-registered for result serving (with their persisted results, when
// intact), interrupted jobs are re-queued — resuming from the last
// durable chunk boundary when their partial results survived — and jobs
// whose Runner cannot be rebuilt are registered as Failed so pollers get
// a terminal answer instead of a 404.
//
// Recover must run before the first Submit (it returns
// ErrRecoverAfterStart otherwise): the startup sweep and id namespace
// assume replay happens on a quiet manager. On a fresh or volatile store
// it is a cheap no-op.
func (m *Manager) Recover(resolve RunnerResolver) (RecoveryStats, error) {
	var stats RecoveryStats
	if m.poolStarted.Load() {
		return stats, ErrRecoverAfterStart
	}
	// Fold the log into one history per job. Resume decisions trust only
	// chunk-aligned Progress records (alignedDone/alignedBytes): the final
	// chunk of a job whose total is not a chunk multiple commits a
	// non-aligned record, and resuming from "done rounded down" while the
	// results file already covers all done inputs would re-run that chunk
	// and duplicate its lines. The newest record overall (done/resultBytes)
	// still matters: when it covers every input, the job finished and only
	// its terminal record was lost.
	type history struct {
		sub          *jobstore.Event
		done         int
		resultBytes  int64
		alignedDone  int
		alignedBytes int64
		fin          *jobstore.Event
	}
	hists := map[string]*history{}
	var order []string
	err := m.store.Replay(func(ev *jobstore.Event) error {
		h := hists[ev.Job]
		if h == nil {
			if ev.Type != jobstore.Submitted {
				return nil // orphan transition (its Submitted record was lost)
			}
			h = &history{}
			hists[ev.Job] = h
			order = append(order, ev.Job)
		}
		switch ev.Type {
		case jobstore.Submitted:
			if h.sub == nil {
				e := *ev
				h.sub = &e
			}
		case jobstore.Progress:
			if ev.Done >= h.done {
				h.done, h.resultBytes = ev.Done, ev.ResultBytes
			}
			chunk := h.sub.Chunk
			if chunk <= 0 {
				chunk = m.cfg.Chunk
			}
			if ev.Done%chunk == 0 && ev.Done >= h.alignedDone {
				h.alignedDone, h.alignedBytes = ev.Done, ev.ResultBytes
			}
		case jobstore.Finished:
			e := *ev
			h.fin = &e
		}
		return nil
	})
	if err != nil {
		return stats, fmt.Errorf("jobs: replaying store: %w", err)
	}
	// The replay succeeded: the job table (populated below) is now
	// authoritative for which result files are live, so the startup sweep
	// may prune the rest.
	m.recoverRan.Store(true)
	now := time.Now()
	var recovered []*Job
	var requeue []*Job
	for _, id := range order {
		h := hists[id]
		chunk := h.sub.Chunk
		if chunk <= 0 {
			chunk = m.cfg.Chunk
		}
		j := &Job{
			m:         m,
			id:        id,
			kind:      h.sub.Kind,
			total:     h.sub.Total,
			chunk:     chunk,
			created:   h.sub.Time,
			recovered: true,
			done:      make(chan struct{}),
		}
		switch {
		case h.fin != nil:
			m.recoverFinished(j, h.fin)
			stats.Served++
		case h.sub.Total > 0 && h.done >= h.sub.Total && m.resultsIntact(id, h.resultBytes):
			// Every input completed and its results are durable — the crash
			// only lost the terminal record (the final chunk of a total that
			// is not a chunk multiple commits a non-aligned Progress record,
			// so this is the common shape of that crash window). Finalize as
			// Done rather than re-queue: resuming from the last aligned
			// boundary would re-run the final chunk and append lines the
			// results file already holds. The synthesized terminal record is
			// persisted so the next restart replays it as finished outright.
			fin := &jobstore.Event{
				Type:        jobstore.Finished,
				Job:         id,
				State:       Done.String(),
				Done:        h.done,
				ResultBytes: h.resultBytes,
				Time:        now,
			}
			m.recoverFinished(j, fin)
			m.append(fin)
			stats.Served++
		default:
			run, rerr := resolve(Submission{
				ID:      id,
				Kind:    h.sub.Kind,
				Total:   h.sub.Total,
				Chunk:   chunk,
				Payload: h.sub.Payload,
			})
			if rerr != nil {
				// Unrecoverable submission: fail it terminally — and persist
				// the verdict, so the next restart serves the failure instead
				// of retrying a resolve that cannot succeed.
				j.state.Store(int32(Failed))
				j.errMsg = fmt.Sprintf("recovering job: %v", rerr)
				t := now
				j.finished = &t
				close(j.done)
				m.append(&jobstore.Event{
					Type:  jobstore.Finished,
					Job:   id,
					State: Failed.String(),
					Error: j.errMsg,
				})
				m.failed.Add(1)
				stats.Failed++
			} else {
				resume := m.recoverResume(j, h.alignedDone, h.alignedBytes)
				j.run = run
				j.resume = resume
				j.doneDocs.Store(int64(resume))
				j.state.Store(int32(Queued))
				requeue = append(requeue, j)
				stats.Requeued++
				if resume > 0 {
					stats.Resumed++
				}
			}
		}
		recovered = append(recovered, j)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return RecoveryStats{}, ErrClosed
	}
	for _, j := range recovered {
		m.jobs[j.id] = j
	}
	m.pending = append(m.pending, requeue...)
	m.mu.Unlock()
	m.recovered.Add(int64(len(recovered)))
	if len(requeue) > 0 {
		// Replay found runnable work: the pool must start now, not on some
		// future Submit that may never come.
		m.start.Do(m.startPool)
		m.cond.Broadcast()
	}
	return stats, nil
}

// recoverFinished re-registers a finished job from its terminal record,
// re-attaching the persisted results when they are intact. A done job
// whose result file went missing or came up short degrades to failed —
// never a 200 that silently serves a truncated verdict set as complete.
func (m *Manager) recoverFinished(j *Job, fin *jobstore.Event) {
	st, ok := parseState(fin.State)
	if !ok || !st.Finished() {
		st = Failed
		j.errMsg = fmt.Sprintf("recovered terminal record has invalid state %q", fin.State)
	}
	j.errMsg = firstNonEmpty(j.errMsg, fin.Error)
	j.receiptRoot = fin.Root
	j.doneDocs.Store(int64(fin.Done))
	if fin.ResultBytes > 0 {
		path := m.resultsPath(j.id)
		fi, err := os.Stat(path)
		switch {
		case path != "" && err == nil && fi.Size() >= fin.ResultBytes:
			// Intact (possibly with a torn tail past the recorded bytes —
			// results are written before the record, so the file is only
			// ever longer). Trim to the durable prefix.
			_ = os.Truncate(path, fin.ResultBytes)
			j.spillPath = path
			j.resultBytes = fin.ResultBytes
		case path != "" && err == nil && st != Done:
			// A failed/canceled job's results were partial anyway; keep the
			// shorter-than-recorded remnant rather than dropping it.
			j.spillPath = path
			j.resultBytes = fi.Size()
		default:
			if st == Done {
				st = Failed
				j.errMsg = "recovered results incomplete"
			}
		}
	}
	j.state.Store(int32(st))
	t := fin.Time
	j.finished = &t
	close(j.done)
}

// recoverResume validates an interrupted job's durable progress and
// returns the input offset to resume from: the recorded chunk boundary
// when the write-through results file covers it, zero (full re-run, file
// removed) otherwise. The caller passes only chunk-aligned progress (the
// replay fold filters for it): truncating the file to a record's bytes is
// only resume-safe when the record sits exactly on the boundary execution
// restarts from — a non-aligned record's bytes cover inputs the resumed
// run would produce again. Results are written to the file before the
// progress record is appended, so a file at least as long as the recorded
// bytes is guaranteed intact up to them; truncating to the recorded
// length drops any torn tail from the interrupted chunk and keeps the
// replayed output byte-identical to an uninterrupted run.
func (m *Manager) recoverResume(j *Job, done int, resultBytes int64) int {
	path := m.resultsPath(j.id)
	if done <= 0 || done%j.chunk != 0 || path == "" {
		if path != "" {
			_ = os.Remove(path)
		}
		return 0
	}
	if resultBytes > 0 {
		fi, err := os.Stat(path)
		if err != nil || fi.Size() < resultBytes {
			_ = os.Remove(path)
			return 0
		}
		_ = os.Truncate(path, resultBytes)
		j.spillPath = path
		j.resultBytes = resultBytes
	} else {
		_ = os.Remove(path)
	}
	return done
}

// resultsIntact reports whether the write-through results file for id
// holds at least n durable bytes — the precondition for serving a
// recovered job's results as complete.
func (m *Manager) resultsIntact(id string, n int64) bool {
	if n <= 0 {
		return false
	}
	path := m.resultsPath(id)
	if path == "" {
		return false
	}
	fi, err := os.Stat(path)
	return err == nil && fi.Size() >= n
}

// resultsPath is the write-through results file for a job id ("" when the
// manager has no durable results directory).
func (m *Manager) resultsPath(id string) string {
	if m.resultsDir == "" {
		return ""
	}
	return filepath.Join(m.resultsDir, id+".ndjson")
}

// firstNonEmpty returns the first non-empty string.
func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// Get returns the job with the given id, if it is still retained.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every retained job, newest submission first.
func (m *Manager) List() []Info {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]Info, len(jobs))
	for i, j := range jobs {
		out[i] = j.Info()
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].CreatedAt.Equal(out[k].CreatedAt) {
			return out[i].CreatedAt.After(out[k].CreatedAt)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel requests cancellation of the job with the given id. A queued job
// becomes Canceled immediately and never runs; a running job stops at its
// next chunk boundary, keeping the results produced so far; a finished job
// is left untouched (Cancel then reports false). The boolean is whether a
// cancellation was actually delivered; unknown ids return ErrNotFound.
func (m *Manager) Cancel(id string) (bool, error) {
	j, ok := m.Get(id)
	if !ok {
		return false, ErrNotFound
	}
	return j.Cancel(), nil
}

// Remove drops a finished job from the table right now (freeing its
// buffered results and spill file, and retiring its log history) — the
// DELETE-a-finished-job semantics. Active jobs are not removable; cancel
// them first. It reports whether the job was removed.
func (m *Manager) Remove(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || !State(j.state.Load()).Finished() {
		m.mu.Unlock()
		return false
	}
	delete(m.jobs, id)
	m.mu.Unlock()
	j.cleanup()
	m.append(&jobstore.Event{Type: jobstore.Removed, Job: id})
	m.reaped.Add(1)
	return true
}

// ErrNotFound reports an unknown (or already reaped) job id — the HTTP
// layer maps it to 404.
var ErrNotFound = errors.New("jobs: no such job")

// nl terminates one NDJSON line.
var nl = []byte{'\n'}

// Reap sweeps finished jobs whose retention TTL has expired, returning how
// many were removed. The background reaper calls it periodically; tests
// (and operators wanting immediate reclamation) may call it directly.
func (m *Manager) Reap() int {
	cutoff := time.Now().Add(-m.cfg.ResultTTL)
	var expired []*Job
	m.mu.Lock()
	for id, j := range m.jobs {
		if fin, ok := j.finishedAt(); ok && fin.Before(cutoff) {
			delete(m.jobs, id)
			expired = append(expired, j)
		}
	}
	m.mu.Unlock()
	for _, j := range expired {
		j.cleanup()
		m.append(&jobstore.Event{Type: jobstore.Removed, Job: j.id})
	}
	m.reaped.Add(int64(len(expired)))
	return len(expired)
}

// reaper periodically sweeps expired jobs until Close, and keeps this
// instance's spill namespace visibly alive (mtime refresh) so sibling
// sweeps never mistake it for an orphan.
func (m *Manager) reaper() {
	period := m.cfg.ResultTTL / 4
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Reap()
			m.touchSpillDir()
		}
	}
}

// touchSpillDir refreshes the instance namespace's mtime — the liveness
// signal the age-based orphan sweep keys on.
func (m *Manager) touchSpillDir() {
	if m.spillDir == "" {
		return
	}
	if _, err := os.Stat(m.spillDir); err == nil {
		now := time.Now()
		_ = os.Chtimes(m.spillDir, now, now)
	}
}

// worker claims jobs off the pending queue until Close. Jobs canceled
// while queued are removed from pending by Cancel itself, so they never
// hold a queue slot against the QueueDepth bound.
func (m *Manager) worker() {
	for {
		m.mu.Lock()
		for !m.closed && len(m.pending) == 0 {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending[0] = nil
		m.pending = m.pending[1:]
		// The Add happens under m.mu, before the closed flag could have
		// been observed set — so Close's Wait never races an Add.
		m.runWG.Add(1)
		m.mu.Unlock()
		m.runJob(j)
		m.runWG.Done()
	}
}

// runJob drives one job through its chunks (from its resume offset, for a
// recovered job), honoring cancellation between chunks and recording the
// terminal state exactly once — in memory and, for transitions a restart
// must know about, in the store.
func (m *Manager) runJob(j *Job) {
	now := time.Now()
	j.mu.Lock()
	if !j.state.CompareAndSwap(int32(Queued), int32(Running)) {
		j.mu.Unlock()
		return // canceled while queued; Cancel already finalized it
	}
	// The claim and its timestamp commit under one j.mu hold, so Info can
	// never observe state "running" without startedAt (same for the
	// terminal transitions below).
	j.started = &now
	j.mu.Unlock()
	m.append(&jobstore.Event{Type: jobstore.Started, Job: j.id})
	for lo := j.resume; lo < j.total; lo += j.chunk {
		reqCancel := j.cancelReq.Load()
		shutdown := false
		select {
		case <-m.stop:
			shutdown = true
		default:
		}
		if reqCancel || shutdown {
			// A user cancel is a terminal verdict and persists; a shutdown
			// is not — the job must replay as interrupted so a restarted
			// manager finishes it.
			j.finish(Canceled, "", reqCancel)
			return
		}
		hi := lo + j.chunk
		if hi > j.total {
			hi = j.total
		}
		lines, err := j.run(lo, hi)
		var rb int64
		if err == nil {
			rb, err = j.appendResults(lines)
		}
		if err != nil {
			j.finish(Failed, err.Error(), true)
			return
		}
		done := j.doneDocs.Add(int64(hi - lo))
		// Results first, then the progress record: recovery trusts a
		// progress record only as far as the bytes already on disk, so this
		// ordering is what makes resume truncation safe.
		m.append(&jobstore.Event{
			Type:        jobstore.Progress,
			Job:         j.id,
			Done:        int(done),
			ResultBytes: rb,
		})
	}
	// A cancellation that lands during the final chunk would otherwise be
	// acknowledged yet end "done"; this narrows that window — a Cancel
	// racing the line below can still lose, which the API documents.
	if j.cancelReq.Load() {
		j.finish(Canceled, "", true)
		return
	}
	j.finish(Done, "", true)
}

// Stats is a snapshot of the manager's gauges and lifetime counters —
// surfaced as the "jobs" block of GET /stats.
type Stats struct {
	// Gauges over the currently retained job table.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Retained int `json:"retained"`
	// Lifetime counters. Recovered counts jobs replayed from the store by
	// a restarted manager.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
	Reaped    int64 `json:"reaped"`
	Recovered int64 `json:"recovered"`
	// Configuration echoes, so dashboards can plot queue pressure against
	// its bound. Durable reports whether job state survives a restart.
	Workers    int  `json:"workers"`
	QueueDepth int  `json:"queueDepth"`
	Durable    bool `json:"durable"`
}

// Stats snapshots the manager.
func (m *Manager) Stats() Stats {
	s := Stats{
		Submitted:  m.submitted.Load(),
		Completed:  m.completed.Load(),
		Failed:     m.failed.Load(),
		Canceled:   m.canceled.Load(),
		Rejected:   m.rejected.Load(),
		Reaped:     m.reaped.Load(),
		Recovered:  m.recovered.Load(),
		Workers:    m.cfg.Workers,
		QueueDepth: m.cfg.QueueDepth,
		Durable:    m.durable,
	}
	m.mu.Lock()
	s.Retained = len(m.jobs)
	for _, j := range m.jobs {
		switch State(j.state.Load()) {
		case Queued:
			s.Queued++
		case Running:
			s.Running++
		}
	}
	m.mu.Unlock()
	return s
}

// Job is one submitted batch: identity, lifecycle state, progress
// counters and the retained results. All methods are safe for concurrent
// use.
type Job struct {
	m     *Manager
	id    string
	kind  string
	total int
	chunk int
	run   Runner
	// resume is the input offset execution starts from — non-zero only for
	// a recovered job resuming past its durable chunks.
	resume    int
	recovered bool

	state     atomic.Int32 // State
	cancelReq atomic.Bool
	doneDocs  atomic.Int64
	created   time.Time
	done      chan struct{} // closed exactly once, on reaching a terminal state

	mu          sync.Mutex
	started     *time.Time
	finished    *time.Time
	errMsg      string
	lines       [][]byte // buffered encoded NDJSON result lines
	resultBytes int64
	spillPath   string
	spill       *os.File // append handle while spilled; nil otherwise
	// receiptRoot/receiptData carry the job's verdict receipt when the
	// submitter attached one: the root record (persisted in the terminal
	// event, so it survives restarts) and the full receipt document with
	// per-document proofs (in-memory only; recomputable, never persisted).
	receiptRoot string
	receiptData []byte
	// accepted is the snapshot Submit takes before the job becomes
	// visible to workers; zero for recovered jobs.
	accepted Info
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() State { return State(j.state.Load()) }

// AcceptedInfo returns the job as Submit accepted it: state Queued,
// nothing done. A submission reply reports this snapshot, because a worker
// may claim the job before the reply is written. Zero for recovered jobs.
func (j *Job) AcceptedInfo() Info { return j.accepted }

// Recovered reports whether this job was replayed from the store by a
// restarted manager rather than submitted to this process.
func (j *Job) Recovered() bool { return j.recovered }

// Done returns a channel closed when the job reaches a terminal state —
// the no-polling alternative to watching Info.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation: immediate for a queued job, at the next
// chunk boundary for a running one, a no-op (false) for a finished one.
func (j *Job) Cancel() bool {
	j.cancelReq.Store(true)
	if j.cancelQueued(true) {
		// The job never ran; free its queue slot so canceled-while-queued
		// jobs don't count against QueueDepth. (If a worker claimed it
		// first, it is already out of pending and the worker's own
		// queued→running CAS won instead.)
		j.m.removePending(j)
		return true
	}
	return State(j.state.Load()) == Running
}

// cancelQueued finalizes a still-queued job as Canceled and counts it —
// the CAS arbitrates against a worker's queued→running claim. persist
// records the cancellation in the store (true for a user cancel, false for
// a shutdown, where the job must replay as interrupted). Reports whether
// this call won the job.
func (j *Job) cancelQueued(persist bool) bool {
	now := time.Now()
	j.mu.Lock()
	if !j.state.CompareAndSwap(int32(Queued), int32(Canceled)) {
		j.mu.Unlock()
		return false
	}
	j.finished = &now
	j.run = nil
	done := j.doneDocs.Load()
	rb := j.resultBytes
	j.mu.Unlock()
	j.m.canceled.Add(1) // before Done: a waiter's Stats must count the job
	close(j.done)
	if persist {
		j.m.append(&jobstore.Event{
			Type:        jobstore.Finished,
			Job:         j.id,
			Done:        int(done),
			ResultBytes: rb,
			State:       Canceled.String(),
		})
	}
	return true
}

// removePending drops j from the pending queue, if it is still there.
func (m *Manager) removePending(j *Job) {
	m.mu.Lock()
	for i, p := range m.pending {
		if p == j {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
}

// finish moves a running job to its terminal state: state, finish time
// and error commit under one j.mu hold (Info can never see a terminal
// state without finishedAt), the spill append handle closes, the Runner
// closure is released (it pins the submitted inputs — for the engine, the
// whole docs slice — which must not stay live for the retention TTL), the
// outcome is counted, and Done is signaled. persist appends the terminal record to the store;
// shutdown-interrupted jobs pass false so a durable log replays them as
// interrupted instead of canceled.
func (j *Job) finish(s State, errMsg string, persist bool) {
	now := time.Now()
	j.mu.Lock()
	j.state.Store(int32(s))
	j.finished = &now
	j.errMsg = errMsg
	j.run = nil
	if j.spill != nil {
		_ = j.spill.Close()
		j.spill = nil
	}
	done := j.doneDocs.Load()
	rb := j.resultBytes
	root := j.receiptRoot
	j.mu.Unlock()
	// Count the outcome before signaling Done, so a caller woken by Done
	// reads lifetime counters that already include this job.
	switch s {
	case Done:
		j.m.completed.Add(1)
	case Failed:
		j.m.failed.Add(1)
	case Canceled:
		j.m.canceled.Add(1)
	}
	close(j.done)
	if persist {
		j.m.append(&jobstore.Event{
			Type:        jobstore.Finished,
			Job:         j.id,
			Done:        int(done),
			ResultBytes: rb,
			State:       s.String(),
			Error:       errMsg,
			Root:        root,
		})
	}
}

// SetReceipt attaches the job's verdict receipt: the root record and the
// encoded receipt document (root + per-document inclusion proofs). Called
// by the submitter's runner when the last chunk completes. The root rides
// the terminal store record; when the receipt arrives after the job
// already finalized (the runner can outrun the Submit return), a
// supplementary terminal record re-persists the state with the root so a
// restart still recovers it.
func (j *Job) SetReceipt(root string, data []byte) {
	j.mu.Lock()
	j.receiptRoot = root
	j.receiptData = data
	finished := j.finished != nil
	st := State(j.state.Load())
	done := j.doneDocs.Load()
	rb := j.resultBytes
	errMsg := j.errMsg
	j.mu.Unlock()
	if finished && st.Finished() {
		j.m.append(&jobstore.Event{
			Type:        jobstore.Finished,
			Job:         j.id,
			Done:        int(done),
			ResultBytes: rb,
			State:       st.String(),
			Error:       errMsg,
			Root:        root,
		})
	}
}

// Receipt returns the job's verdict receipt: the root record and the full
// encoded receipt document. A job recovered from the store after a
// restart keeps its root (persisted in the terminal record) but not the
// proof document; data is then nil. Both are empty for jobs submitted
// without receipts.
func (j *Job) Receipt() (root string, data []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.receiptRoot, j.receiptData
}

// finishedAt returns the finish time when the job is terminal.
func (j *Job) finishedAt() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished == nil {
		return time.Time{}, false
	}
	return *j.finished, true
}

// appendResults retains one chunk's encoded lines and returns the total
// retained bytes. Jobs on a durable store write through to their results
// file as produced (so a restart can re-serve or resume them); volatile
// jobs buffer in memory up to the configured cap, then (with a spill
// directory) spill to a per-job NDJSON file.
func (j *Job) appendResults(lines [][]byte) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.spill == nil {
		writeThrough := j.m.durable && j.m.resultsDir != ""
		overflow := j.spillPath == "" && j.m.spillDir != "" &&
			len(j.lines)+len(lines) > j.m.cfg.BufferedResults
		if writeThrough || overflow {
			if err := j.openSpillLocked(); err != nil {
				return j.resultBytes, err
			}
		}
	}
	if j.spill != nil {
		for _, ln := range lines {
			if _, err := j.spill.Write(ln); err != nil {
				return j.resultBytes, fmt.Errorf("jobs: writing spill file: %w", err)
			}
			if _, err := j.spill.Write(nl); err != nil {
				return j.resultBytes, fmt.Errorf("jobs: writing spill file: %w", err)
			}
			j.resultBytes += int64(len(ln)) + 1
		}
		return j.resultBytes, nil
	}
	for _, ln := range lines {
		j.lines = append(j.lines, ln)
		j.resultBytes += int64(len(ln)) + 1
	}
	return j.resultBytes, nil
}

// openSpillLocked opens the job's on-disk results file and keeps the
// handle for subsequent appends: a fresh file absorbing the buffered
// lines in the usual case, or — for a recovered job resuming past durable
// results — an append handle onto the already-truncated prefix. Called
// with j.mu held.
func (j *Job) openSpillLocked() error {
	if j.spillPath != "" {
		// Recovery validated and truncated the file; continue where the
		// durable prefix ends.
		f, err := os.OpenFile(j.spillPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("jobs: reopening results file: %w", err)
		}
		j.spill = f
		return nil
	}
	dir := j.m.spillDir
	if j.m.durable {
		dir = j.m.resultsDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jobs: creating spill dir: %w", err)
	}
	path := filepath.Join(dir, j.id+".ndjson")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: creating spill file: %w", err)
	}
	for _, ln := range j.lines {
		_, err := f.Write(ln)
		if err == nil {
			_, err = f.Write(nl)
		}
		if err != nil {
			_ = f.Close()
			_ = os.Remove(path)
			return fmt.Errorf("jobs: writing spill file: %w", err)
		}
	}
	j.lines = nil
	j.spillPath = path
	j.spill = f
	return nil
}

// WriteResults streams the job's retained results — one NDJSON line per
// processed input, in input order — into w, returning the bytes written.
// For a job that is still running, the stream is the prefix accumulated so
// far; poll until the state is terminal for the complete set.
func (j *Job) WriteResults(w io.Writer) (int64, error) {
	// Snapshot under j.mu, then write with the lock released: w may be a
	// slow client connection, and holding the lock across the copy would
	// stall the job's appends and every Info poll.
	j.mu.Lock()
	if j.spillPath != "" {
		f, err := os.Open(j.spillPath)
		if err != nil {
			j.mu.Unlock()
			return 0, fmt.Errorf("jobs: reading spill file: %w", err)
		}
		// Bound the copy at the bytes appended so far: a concurrent append
		// can grow the file, but never past the resultBytes snapshot.
		limit := j.resultBytes
		j.mu.Unlock()
		defer f.Close()
		return io.Copy(w, io.LimitReader(f, limit))
	}
	// The lines slice is append-only while the job lives (cleanup replaces
	// the header, never the retained elements), so the snapshot stays valid.
	lines := j.lines
	j.mu.Unlock()
	var n int64
	for _, ln := range lines {
		wn, err := w.Write(ln)
		n += int64(wn)
		if err != nil {
			return n, err
		}
		wn, err = w.Write(nl)
		n += int64(wn)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// cleanup releases a removed job's retained results.
func (j *Job) cleanup() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lines = nil
	if j.spill != nil {
		_ = j.spill.Close()
		j.spill = nil
	}
	if j.spillPath != "" {
		_ = os.Remove(j.spillPath)
		j.spillPath = ""
	}
}

// Info is a job snapshot: the wire form of GET /jobs and GET /jobs/{id}.
type Info struct {
	// ID is the job identifier handed back by the 202 submission response.
	ID string `json:"id"`
	// Kind is the workload ("check" or "complete" for the engine's jobs).
	Kind string `json:"kind"`
	// State is the lifecycle state name.
	State string `json:"state"`
	// Total and Done are the progress counters: inputs submitted and inputs
	// processed so far.
	Total int `json:"total"`
	Done  int `json:"done"`
	// ResultBytes is the size of the retained NDJSON results; Spilled
	// reports whether they live on disk.
	ResultBytes int64 `json:"resultBytes"`
	Spilled     bool  `json:"spilled,omitempty"`
	// Recovered marks a job replayed from the durable store by a restarted
	// process rather than submitted to this one.
	Recovered bool `json:"recovered,omitempty"`
	// ReceiptRoot is the job's verdict-receipt root record, for jobs
	// submitted with receipts on. The full receipt (with per-document
	// proofs) is served separately (GET /jobs/{id}/receipt); only the root
	// survives a restart.
	ReceiptRoot string `json:"receiptRoot,omitempty"`
	// Error explains a Failed state.
	Error string `json:"error,omitempty"`
	// CreatedAt/StartedAt/FinishedAt are the lifecycle timestamps.
	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

// Info snapshots the job. State, progress and timestamps are read under
// j.mu — the same hold every transition commits under — so a terminal
// state always appears together with its finish time and full progress
// count.
func (j *Job) Info() Info {
	info := Info{
		ID:        j.id,
		Kind:      j.kind,
		Total:     j.total,
		Recovered: j.recovered,
		CreatedAt: j.created,
	}
	j.mu.Lock()
	info.State = State(j.state.Load()).String()
	info.Done = int(j.doneDocs.Load())
	info.ResultBytes = j.resultBytes
	info.Spilled = j.spillPath != ""
	info.ReceiptRoot = j.receiptRoot
	info.Error = j.errMsg
	if j.started != nil {
		t := *j.started
		info.StartedAt = &t
	}
	if j.finished != nil {
		t := *j.finished
		info.FinishedAt = &t
	}
	j.mu.Unlock()
	return info
}
