package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/complete"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dom"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/jobs/jobstore"
	"repro/internal/jobs/walstore"
	"repro/internal/receipt"
	"repro/internal/schemastore"
	"repro/internal/xmltext"
)

// The traced run replays one pass of the workload in process and times
// the layers' public entry points from the benchmark's side. The engine
// itself is not instrumented, so a layer's children are mirrored: right
// after the engine call returns, the calls it makes inside are replayed
// one by one, each as a child span of the call. A span's self time is its
// duration minus the summed durations of its children — for engine.http
// that is the JSON decode/encode around the engine, for engine.batch the
// engine's own bookkeeping around the layers below it. The replay's root
// spans ("request") keep the benchmark's own work — checking every reply
// against the oracle — as their self time.
//
// Layers the workload's route does not reach are priced on the same
// documents by a ladder after the replay (a completion-draft sample where
// the workload has no drafts), and the job, WAL, receipt and schema-store
// layers by a short durable-engine section, so every workload reports every
// per-layer metric.

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int    `json:"req"`    // request (or document, or job) the call served
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the trace began
	End    int64  `json:"endNs"`
	Bytes  int64  `json:"bytes,omitempty"` // document bytes the call processed
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; with on false, begin and end do nothing,
// which is the untraced replay the overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int, n int64) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Bytes: n,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// record adds a span whose bounds were measured elsewhere (job
// timestamps).
func (t *tracer) record(name string, req, parent int, start, end time.Time) {
	if t.on {
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	}
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	Count  int
	Dur    time.Duration
	Self   time.Duration
	Bytes  int64
	DursMS []float64
}

func (l *layerStats) mbPerS() float64 { return float64(l.Bytes) / (1 << 20) / l.Dur.Seconds() }
func (l *layerStats) meanMS() float64 { return l.Dur.Seconds() * 1000 / float64(max(l.Count, 1)) }

// summarize groups spans by name and computes self times.
func summarize(spans []span) map[string]*layerStats {
	child := make([]time.Duration, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].dur()
		}
	}
	out := map[string]*layerStats{}
	for i := range spans {
		s := &spans[i]
		l := out[s.Name]
		if l == nil {
			l = &layerStats{}
			out[s.Name] = l
		}
		l.Count++
		l.Dur += s.dur()
		l.Self += s.dur() - child[i]
		l.Bytes += s.Bytes
		l.DursMS = append(l.DursMS, s.dur().Seconds()*1000)
	}
	return out
}

// replayer replays a workload in process against an engine with one
// worker.
type replayer struct {
	w          *workload
	e          *engine.Engine
	h          http.Handler
	schemas    []*engine.Schema
	strs       []string // document contents as strings (the JSON routes' form)
	checkers   []*core.StreamChecker
	completers []*complete.Completer
	tr         *tracer
	t          *tally

	// Counted once: on the first traced replay and on the ladder.
	counting         bool
	hits, fallbacks  int64
	strict, parsed   int
	inserted, drafts int
}

func newReplayer(w *workload, t *tally) (*replayer, error) {
	e, err := engine.Open(engine.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	r := &replayer{w: w, e: e, h: engine.NewServer(e), tr: &tracer{}, t: t}
	for _, si := range w.Schemas {
		s, err := e.Compile(engine.DTDSource, si.Def.Source, si.Def.Root, engine.CompileOptions{})
		if err != nil {
			e.Close()
			return nil, err
		}
		r.schemas = append(r.schemas, s)
		r.checkers = append(r.checkers, s.Core.NewStreamChecker())
		r.completers = append(r.completers, complete.New(s.Core))
	}
	for i := range w.Docs {
		r.strs = append(r.strs, string(w.Docs[i].Content))
	}
	return r, nil
}

// replay runs one pass of the request sequence, in engine order, and
// returns its duration.
func (r *replayer) replay() time.Duration {
	start := time.Now()
	for ri := range r.w.Reqs {
		req := &r.w.Reqs[ri]
		root := r.tr.begin("request", ri, -1, req.Bytes)
		h := r.tr.begin("engine.http", ri, root, req.Bytes)
		rec := r.serve(req)
		r.tr.end(h)
		r.checkHTTP(ri, rec)
		b := r.tr.begin("engine.batch", ri, h, req.Bytes)
		switch r.w.Route {
		case routeRaw:
			d := &r.w.Docs[req.Docs[0]]
			res := r.e.CheckReader(r.schemas[req.Schema], d.ID, bytes.NewReader(d.Content))
			r.tr.end(b)
			r.checkResults(req, []engine.Result{res}, true)
			rs := r.tr.begin("core.reader", req.Docs[0], b, int64(len(d.Content)))
			err := r.checkers[req.Schema].RunReader(bytes.NewReader(d.Content))
			r.tr.end(rs)
			r.checkPV(d, err)
		default: // the check layers of ingest-mixed
			res, _ := r.e.CheckBatch(r.schemas[req.Schema], r.engineDocs(req))
			r.tr.end(b)
			r.checkResults(req, res, false)
			for _, di := range req.Docs {
				r.checkDoc(di, b, true)
			}
		}
		r.tr.end(root)
	}
	return time.Since(start)
}

// serve sends the request through the HTTP handler (sync routes; the
// async job path is priced by the jobs section).
func (r *replayer) serve(req *request) *httptest.ResponseRecorder {
	path := "/batch"
	if r.w.Route == routeRaw {
		path = "/check/raw?id=" + r.w.Docs[req.Docs[0]].ID
	}
	hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(req.Body))
	if r.w.Route == routeRaw {
		hr.Header.Set("X-Schema-Ref", r.schemas[req.Schema].Ref)
	}
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, hr)
	return rec
}

func (r *replayer) engineDocs(req *request) []engine.Doc {
	docs := make([]engine.Doc, len(req.Docs))
	for i, di := range req.Docs {
		docs[i] = engine.Doc{ID: r.w.Docs[di].ID, Content: r.strs[di]}
	}
	return docs
}

// checkDoc mirrors the engine's check of one document: the stream run,
// then — when potential validity holds but the run could not prove
// validity — the tree parse and the validator. withTree false stops after
// the stream run (the ladder's check-only pricing).
func (r *replayer) checkDoc(di, parent int, withTree bool) {
	d := &r.w.Docs[di]
	c := r.checkers[d.Schema]
	cs := r.tr.begin("core.check", di, parent, int64(len(d.Content)))
	err := c.Run(r.strs[di])
	r.tr.end(cs)
	r.checkPV(d, err)
	strict := c.StrictlyValid()
	if r.counting {
		h, f := c.FastPathStats()
		r.hits += h
		r.fallbacks += f
		if strict {
			r.strict++
		}
	}
	if err != nil || strict || !withTree {
		return
	}
	ps := r.tr.begin("dom.parse", di, parent, int64(len(d.Content)))
	doc, perr := dom.Parse(r.strs[di])
	r.tr.end(ps)
	if r.counting {
		r.parsed++
	}
	if perr != nil {
		r.t.add(1, 1, fmt.Errorf("%s: %v", d.ID, perr))
		return
	}
	vs := r.tr.begin("validator.validate", di, parent, int64(len(d.Content)))
	verr := r.schemas[d.Schema].Valid.Validate(doc.Root)
	r.tr.end(vs)
	r.count(verr == nil == d.Want.Valid, fmt.Errorf("%s: validator disagrees with the oracle", d.ID))
}

// completeDraft times the completion DP and the diff of one invalid draft
// (parsed as doc), on behalf of request req.
func (r *replayer) completeDraft(d *document, req int, doc *dom.Document, parent int) {
	cs := r.tr.begin("complete.dp", req, parent, int64(len(d.Content)))
	out, nodes, err := r.completers[d.Schema].CompleteTracked(doc.Root)
	r.tr.end(cs)
	if err != nil {
		r.t.add(1, 1, fmt.Errorf("%s: completion failed: %v", d.ID, err))
		return
	}
	doc.Root = out
	ser := string(doc.AppendXML(nil))
	ds := r.tr.begin("diff.compute", req, parent, int64(len(ser)))
	rec := diff.ComputeDoc(out, nodes, ser)
	r.tr.end(ds)
	got := completeJSON{ID: d.ID, Completed: true, Inserted: len(nodes), Output: ser,
		Insertions: insertionsOf(rec.Insertions)}
	r.count(checkCompletion(r.w.Schemas[d.Schema], d, &got) == nil, fmt.Errorf("%s: mirrored completion is wrong", d.ID))
	if r.counting {
		r.inserted += len(nodes)
		r.drafts++
	}
}

func (r *replayer) count(ok bool, err error) {
	if ok {
		r.t.add(1, 0, nil)
	} else {
		r.t.add(1, 1, err)
	}
}

func (r *replayer) checkPV(d *document, err error) {
	r.count((err == nil) == d.Want.PV, fmt.Errorf("%s: stream verdict %v, oracle pv=%v", d.ID, err, d.Want.PV))
}

// checkHTTP checks the handler's response against the oracle.
func (r *replayer) checkHTTP(ri int, rec *httptest.ResponseRecorder) {
	req := &r.w.Reqs[ri]
	if rec.Code != http.StatusOK {
		r.t.add(len(req.Docs), len(req.Docs), fmt.Errorf("HTTP %d: %s", rec.Code, firstLine(rec.Body.Bytes())))
		return
	}
	switch r.w.Route {
	case routeRaw:
		var got resultJSON
		err := json.Unmarshal(rec.Body.Bytes(), &got)
		if err == nil {
			err = checkVerdictDoc(&got, &r.w.Docs[req.Docs[0]], 0, true)
		}
		r.count(err == nil, err)
	default:
		var resp struct {
			Results []resultJSON `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			r.t.add(len(req.Docs), len(req.Docs), err)
			return
		}
		bad, err := checkBatch(r.w.docsOf(req), resp.Results)
		r.t.add(len(req.Docs), bad, err)
	}
}

func (r *replayer) checkResults(req *request, res []engine.Result, raw bool) {
	got := make([]resultJSON, len(res))
	for i, x := range res {
		got[i] = resultJSON{ID: x.ID, Index: x.Index, PotentiallyValid: x.PotentiallyValid, Valid: x.Valid, Detail: x.Detail}
		if x.Err != nil {
			got[i].Error = x.Err.Error()
		}
	}
	if raw {
		err := checkVerdictDoc(&got[0], &r.w.Docs[req.Docs[0]], 0, true)
		r.count(err == nil, err)
		return
	}
	bad, err := checkBatch(r.w.docsOf(req), got)
	r.t.add(len(req.Docs), bad, err)
}

func insertionsOf(ins []diff.Insertion) []insertionJSON {
	out := make([]insertionJSON, len(ins))
	for i, x := range ins {
		out[i] = insertionJSON{Path: x.Path, Index: x.Index, Name: x.Name}
	}
	return out
}

// draftSample returns documents for pricing the completion layers, which
// no workload's route reaches: invalid drafts of the schemas' Draft
// shape, generated from the seed (the workloads' own stripped documents
// can be far more expensive to complete, which would make the trace run's
// length vary by seed).
func draftSample(w *workload, seed int64) ([]document, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	var out []document
	for i := 0; len(out) < 30; i++ {
		si := i % len(w.Schemas)
		s := w.Schemas[si]
		root := gen.GenValid(rng, s.DTD, s.Def.Root, s.Def.Draft)
		gen.Strip(rng, root, 0.3)
		d := document{ID: fmt.Sprintf("draft-%d", i), Schema: si, Content: []byte(root.String())}
		v, err := s.oracle(d.Content)
		if err != nil {
			return nil, err
		}
		if d.Want = v; v.PV && !v.Valid {
			out = append(out, d)
		}
	}
	return out, nil
}

// runTrace is the -trace 1 run: per-layer metrics from the traced replay,
// the ladder and the jobs section, with the spans written to the work
// directory.
func runTrace(w *workload, workDir string, seed int64, t *tally) (map[string]float64, map[string]any, error) {
	r, err := newReplayer(w, t)
	if err != nil {
		return nil, nil, err
	}
	defer r.e.Close()
	vals := map[string]float64{}
	meta := map[string]any{}

	// Compile cost: fresh engines, median of five.
	var compiles []float64
	for k := 0; k < 5; k++ {
		e := engine.New(engine.Config{})
		start := time.Now()
		for _, si := range w.Schemas {
			if _, err := e.Compile(engine.DTDSource, si.Def.Source, si.Def.Root, engine.CompileOptions{}); err != nil {
				e.Close()
				return nil, nil, err
			}
		}
		compiles = append(compiles, time.Since(start).Seconds()*1000)
		e.Close()
	}
	vals["core.compile_ms"] = median(compiles)

	// Warm-up (every response checked by the oracle), then two pairs of
	// an untraced and a traced replay of one pass. The per-layer figures
	// come from both traced replays; the overhead is the mean ratio.
	r.replay()
	r.tr = &tracer{t0: time.Now()}
	var ratios, untraced, traced []float64
	for k := 0; k < 2; k++ {
		u := r.replay()
		r.tr.on, r.counting = true, k == 0
		tt := r.replay()
		r.tr.on, r.counting = false, false
		ratios = append(ratios, tt.Seconds()/u.Seconds()-1)
		untraced = append(untraced, u.Seconds())
		traced = append(traced, tt.Seconds())
	}
	vals["trace.overhead_ratio"] = mean(ratios)
	meta["replay_untraced_s"], meta["replay_traced_s"] = untraced, traced

	// Ladder: the layers this route does not reach, on the same documents.
	r.tr.on, r.counting = true, true
	lx := xmltext.NewByteLexer(nil)
	for di := range w.Docs {
		d := &w.Docs[di]
		ls := r.tr.begin("xmltext.lex", di, -1, int64(len(d.Content)))
		lexAll(lx, d.Content)
		r.tr.end(ls)
		if w.Route == routeRaw {
			r.checkDoc(di, -1, true)
		} else {
			rs := r.tr.begin("core.reader", di, -1, int64(len(d.Content)))
			err := r.checkers[d.Schema].RunReader(bytes.NewReader(d.Content))
			r.tr.end(rs)
			r.checkPV(d, err)
		}
	}
	drafts, err := draftSample(w, seed)
	if err != nil {
		return nil, nil, err
	}
	for i := range drafts {
		doc, err := dom.ParseBytes(drafts[i].Content)
		if err != nil {
			return nil, nil, err
		}
		r.completeDraft(&drafts[i], i, doc, -1)
	}
	allocs, err := r.allocsPerDoc(drafts)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range allocs {
		vals[k] = v
	}
	receiptDocs, err := r.jobsSection(workDir, r.jobBatches(drafts), vals)
	if err != nil {
		return nil, nil, err
	}

	layers := summarize(r.tr.spans)
	for _, name := range []string{"xmltext.lex", "core.check", "core.reader", "dom.parse", "validator.validate",
		"complete.dp", "diff.compute", "engine.batch", "engine.http", "jobs.queue", "jobs.run", "jobs.results",
		"walstore.append", "receipt.build", "schemastore.rehydrate"} {
		if layers[name] == nil {
			return nil, nil, fmt.Errorf("no %s spans were recorded", name)
		}
	}
	need := func(name string) *layerStats { return layers[name] }
	vals["xmltext.lex_mb_per_s"] = need("xmltext.lex").mbPerS()
	vals["core.check_mb_per_s"] = need("core.check").mbPerS()
	vals["core.reader_mb_per_s"] = need("core.reader").mbPerS()
	vals["dom.parse_mb_per_s"] = need("dom.parse").mbPerS()
	vals["validator.walk_us_per_doc"] = need("validator.validate").meanMS() * 1000
	dp := need("complete.dp").DursMS
	sort.Float64s(dp)
	vals["complete.dp_ms_p50"], _ = percentile(dp, 0.50)
	vals["complete.dp_ms_p90"], _ = percentile(dp, 0.90)
	vals["diff.us_per_doc"] = need("diff.compute").meanMS() * 1000
	batch, httpL := need("engine.batch"), need("engine.http")
	vals["engine.batch_self_ms"] = batch.Self.Seconds() * 1000 / float64(max(batch.Count, 1))
	vals["engine.http_self_ms"] = httpL.Self.Seconds() * 1000 / float64(max(httpL.Count, 1))
	vals["jobs.queue_wait_ms"] = need("jobs.queue").meanMS()
	vals["jobs.run_ms"] = need("jobs.run").meanMS()
	vals["jobs.results_read_ms"] = need("jobs.results").meanMS()
	vals["walstore.append_sync_ms"] = need("walstore.append").meanMS()
	vals["receipt.build_us_per_doc"] = need("receipt.build").Dur.Seconds() * 1e6 / float64(max(receiptDocs, 1))
	vals["schemastore.rehydrate_ms"] = median(need("schemastore.rehydrate").DursMS)
	validDocs := 0
	for i := range w.Docs {
		if w.Docs[i].Want.Valid {
			validDocs++
		}
	}
	vals["core.fastpath_hit_ratio"] = float64(r.hits) / float64(max(r.hits+r.fallbacks, 1))
	vals["core.strict_valid_ratio"] = float64(r.strict) / float64(max(validDocs, 1))
	vals["dom.parse_docs"] = float64(r.parsed)
	vals["complete.inserted_per_doc"] = float64(r.inserted) / float64(max(r.drafts, 1))

	path, err := writeSpans(workDir, w.Name, seed, r.tr.spans)
	if err != nil {
		return nil, nil, err
	}
	meta["spans_file"] = path
	meta["spans"] = len(r.tr.spans)
	meta["complete_dp_samples"] = len(dp)
	meta["layers"] = layerTable(layers)
	return vals, meta, nil
}

// lexAll runs the byte lexer over a whole document.
func lexAll(lx *xmltext.ByteLexer, src []byte) {
	lx.Reset(src)
	for {
		tok, err := lx.Next()
		if err != nil || tok == nil {
			return
		}
	}
}

// allocsPerDoc counts heap allocations per document of the lexer, the
// stream checker (warm, reused) and the completion DP, in untimed loops
// outside the spans.
func (r *replayer) allocsPerDoc(drafts []document) (map[string]float64, error) {
	n := len(r.w.Docs)
	out := map[string]float64{}
	var before, after runtime.MemStats
	lx := xmltext.NewByteLexer(nil)
	runtime.ReadMemStats(&before)
	for di := 0; di < n; di++ {
		lexAll(lx, r.w.Docs[di].Content)
	}
	runtime.ReadMemStats(&after)
	out["xmltext.lex_allocs_per_doc"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	runtime.ReadMemStats(&before)
	for di := 0; di < n; di++ {
		_ = r.checkers[r.w.Docs[di].Schema].Run(r.strs[di])
	}
	runtime.ReadMemStats(&after)
	out["core.check_allocs_per_doc"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	roots := make([]*dom.Node, len(drafts))
	for i := range drafts {
		doc, err := dom.ParseBytes(drafts[i].Content)
		if err != nil {
			return nil, err
		}
		roots[i] = doc.Root
	}
	runtime.ReadMemStats(&before)
	for i := range drafts {
		_, _, _ = r.completers[drafts[i].Schema].CompleteTracked(roots[i])
	}
	runtime.ReadMemStats(&after)
	out["complete.allocs_per_doc"] = float64(after.Mallocs-before.Mallocs) / float64(max(len(drafts), 1))
	return out, nil
}

// jobBatches picks up to six single-schema batches of at most 64
// tree-sized documents for the jobs section: the first requests of
// ingest-mixed, and for raw-large (whose multi-MB documents are another
// route's business) the draft sample by schema.
func (r *replayer) jobBatches(drafts []document) [][]*document {
	var out [][]*document
	if r.w.Route == routeBatch {
		for i := 0; i < len(r.w.Reqs) && len(out) < 6; i++ {
			out = append(out, r.w.docsOf(&r.w.Reqs[i]))
		}
		return out
	}
	bySchema := make([][]*document, len(r.w.Schemas))
	for i := range drafts {
		bySchema[drafts[i].Schema] = append(bySchema[drafts[i].Schema], &drafts[i])
	}
	for _, ds := range bySchema {
		for len(ds) > 0 && len(out) < 6 {
			n := min(64, len(ds))
			out = append(out, ds[:n])
			ds = ds[n:]
		}
	}
	return out
}

// jobsSection prices the async-job layers on a durable in-process engine:
// submission, queue wait and run (from the job's own timestamps), results
// read-back, the WAL append with fsync, receipt building, and the
// compiled-schema disk tier read on restart. Every job's results and
// receipt are checked against the oracle. It returns the number of
// documents the receipts covered.
func (r *replayer) jobsSection(workDir string, batches [][]*document, vals map[string]float64) (int, error) {
	dir, err := os.MkdirTemp(workDir, "trace-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cacheDir := filepath.Join(dir, "cache")
	e, err := engine.Open(engine.Config{CacheDir: cacheDir, Workers: 1})
	if err != nil {
		return 0, err
	}
	var refs []string
	for bi, batch := range batches {
		si := r.w.Schemas[batch[0].Schema]
		s, err := e.Compile(engine.DTDSource, si.Def.Source, si.Def.Root, engine.CompileOptions{})
		if err != nil {
			e.Close()
			return 0, err
		}
		refs = append(refs, s.Ref)
		docs := make([]engine.Doc, len(batch))
		var n int64
		for i, d := range batch {
			docs[i] = engine.Doc{ID: d.ID, Content: string(d.Content)}
			n += int64(len(d.Content))
		}
		js := r.tr.begin("jobs.submit", bi, -1, n)
		j, err := e.SubmitCheckBatchReceipt(s, docs)
		r.tr.end(js)
		if err != nil {
			e.Close()
			return 0, err
		}
		<-j.Done()
		info := j.Info()
		if info.StartedAt == nil || info.FinishedAt == nil || info.State != "done" {
			r.t.add(len(batch), len(batch), fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error))
			continue
		}
		r.tr.record("jobs.queue", bi, -1, info.CreatedAt, *info.StartedAt)
		r.tr.record("jobs.run", bi, -1, *info.StartedAt, *info.FinishedAt)
		var buf bytes.Buffer
		rs := r.tr.begin("jobs.results", bi, -1, 0)
		_, err = j.WriteResults(&buf)
		r.tr.end(rs)
		results, perr := parseNDJSON(buf.Bytes())
		if err == nil {
			err = perr
		}
		if err == nil {
			err = jobReceiptOK(r.w, batch, j)
		}
		if err != nil {
			r.t.add(len(batch), len(batch), err)
		} else {
			bad, cerr := checkBatch(batch, results)
			r.t.add(len(batch), bad, cerr)
		}
		e.Jobs().Remove(j.ID())
	}
	e.Close()

	// Restart: a fresh disk-tier handle reads every compiled schema back.
	for k := 0; k < 5; k++ {
		c, err := schemastore.Open(cacheDir)
		if err != nil {
			return 0, err
		}
		ss := r.tr.begin("schemastore.rehydrate", k, -1, 0)
		for _, ref := range refs {
			blob, err := c.Get(ref)
			r.count(err == nil && len(blob) > 0, fmt.Errorf("schema %s not on disk: %v", ref, err))
		}
		r.tr.end(ss)
	}

	// The WAL alone: one Submitted (payload = the batch's /batch body) and
	// one Finished record per job, both fsynced.
	walDir := filepath.Join(dir, "wal")
	ws, err := walstore.Open(walDir, walstore.Options{})
	if err != nil {
		return 0, err
	}
	var walBytes int64
	for bi, batch := range batches {
		si := r.w.Schemas[batch[0].Schema]
		body := batchBody{Schema: si.Def.Source, Root: si.Def.Root}
		for _, d := range batch {
			body.Documents = append(body.Documents, bodyDoc{ID: d.ID, Content: string(d.Content)})
		}
		payload, err := json.Marshal(body)
		if err != nil {
			ws.Close()
			return 0, err
		}
		id := fmt.Sprintf("trace-%d", bi)
		before := dirSize(walDir)
		as := r.tr.begin("walstore.append", bi, -1, int64(len(payload)))
		err = ws.Append(&jobstore.Event{Type: jobstore.Submitted, Job: id, Time: time.Now(),
			Kind: "check", Total: len(batch), Chunk: 64, Payload: payload})
		r.tr.end(as)
		walBytes += dirSize(walDir) - before
		if err == nil {
			as = r.tr.begin("walstore.append", bi, -1, 0)
			err = ws.Append(&jobstore.Event{Type: jobstore.Finished, Job: id, Time: time.Now(),
				Done: len(batch), State: "done"})
			r.tr.end(as)
		}
		if err != nil {
			ws.Close()
			return 0, err
		}
	}
	if err := ws.Close(); err != nil {
		return 0, err
	}
	vals["walstore.bytes_per_job"] = float64(walBytes) / float64(max(len(batches), 1))

	// Receipts: the tree and every proof, as ?receipt=1 builds them.
	receiptDocs := 0
	for bi, batch := range batches {
		leaves := make([]receipt.Leaf, len(batch))
		for i, d := range batch {
			leaves[i] = receipt.Leaf{DocID: d.ID, SchemaRef: refs[bi], Verdict: d.Want.receiptVerdict(),
				ContentDigest: receipt.DigestContent(d.Content)}
		}
		receiptDocs += len(batch)
		rb := r.tr.begin("receipt.build", bi, -1, 0)
		tree, err := receipt.Build(leaves)
		if err == nil {
			for i := range leaves {
				if _, err = tree.Prove(i); err != nil {
					break
				}
			}
		}
		r.tr.end(rb)
		if err != nil {
			return 0, err
		}
	}
	return receiptDocs, nil
}

// jobReceiptOK checks a finished job's receipt against the oracle.
func jobReceiptOK(w *workload, batch []*document, j *jobs.Job) error {
	_, data := j.Receipt()
	var rec engine.Receipt
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("job %s receipt: %w", j.ID(), err)
	}
	return checkReceipt(w, batch, &rec)
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// writeSpans writes the spans as JSON lines under the work directory.
func writeSpans(workDir, name string, seed int64, spans []span) (string, error) {
	dir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printLayers writes the per-name span summary for people: calls, total
// and self milliseconds over the traced replays, ladder and jobs section.
func printLayers(w io.Writer, table map[string][3]float64) {
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-24s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		r := table[n]
		fmt.Fprintf(w, "  %-24s %8.0f %12.3f %12.3f\n", n, r[0], r[1], r[2])
	}
}

// layerTable is the per-name span summary for the metadata line: call
// count, total and self milliseconds.
func layerTable(layers map[string]*layerStats) map[string][3]float64 {
	out := map[string][3]float64{}
	for name, l := range layers {
		out[name] = [3]float64{float64(l.Count), l.Dur.Seconds() * 1000, l.Self.Seconds() * 1000}
	}
	return out
}
