package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// e2eConfig parameterizes the end-to-end run.
type e2eConfig struct {
	Bin     string  // the pvserve binary
	Seconds float64 // measured duration: whole passes until it is reached
	Starts  int     // cold starts behind setup_s
}

// minSamples is the fewest request latencies a run prices: measuring goes
// on past Seconds until the priced repetitions hold this many, so the p90
// always has ten samples beyond it.
const minSamples = 110

// segments is how many fresh pvserve processes a run measures in turn,
// and rssPasses the measured passes each has served when its peak
// resident set is read.
const (
	segments  = 3
	rssPasses = 2
)

// loadgen drives one pvserve child through a workload's request sequence.
type loadgen struct {
	w   *workload
	cfg e2eConfig
	srv *server

	mu sync.Mutex
	t  *tally
}

// runE2E measures the workload against real pvserve processes and returns
// the end-to-end metrics and the run's ungated metadata.
func runE2E(w *workload, cfg e2eConfig, t *tally) (map[string]float64, map[string]any, error) {
	lg := &loadgen{w: w, cfg: cfg, t: t}
	meta := map[string]any{}

	// The measurement runs on several pvserve processes in turn, each
	// started fresh, set up and warmed by one untimed pass. A process's resident set settles on one of a few
	// levels depending on when its collector happened to run; the mean
	// over processes is steadier than any one of them. Each pass is a run
	// of the sequence's chunks in order; every chunk repetition records
	// its duration, pvserve's CPU time and the ticks stolen meanwhile.
	//
	// The cold starts behind setup_s are spread over the measured time,
	// one each time it crosses a further Seconds/Starts, so that they see
	// the same host as the passes rather than one moment of it.
	chunks := w.chunks()
	repsNeeded := (minSamples + len(w.Reqs) - 1) / len(w.Reqs)
	segPasses := max(rssPasses, (max(4, repsNeeded)+segments-1)/segments)
	var (
		reps    = make([][]chunkStat, len(chunks)) // per chunk, per pass
		passes  int
		starts  []startStat
		elapsed time.Duration
		rss     []float64
		gcs     int64
	)
	startsDue := func(all bool) error {
		for len(starts) < cfg.Starts && (all || float64(len(starts))*cfg.Seconds/float64(cfg.Starts) <= elapsed.Seconds()) {
			st, err := lg.coldStart()
			if err != nil {
				return err
			}
			starts = append(starts, st)
		}
		return nil
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for seg := 0; seg < segments; seg++ {
		srv, err := lg.startWarm()
		if err != nil {
			return nil, nil, err
		}
		var segElapsed time.Duration
		for n := 1; segElapsed.Seconds() < cfg.Seconds/segments || n <= segPasses; n++ {
			for ci, c := range chunks {
				st, err := lg.measuredChunk(c)
				if err == nil {
					reps[ci] = append(reps[ci], st)
					segElapsed += st.dur
					elapsed += st.dur
					err = startsDue(false)
				}
				if err != nil {
					srv.stop()
					return nil, nil, err
				}
			}
			passes++
			// The resident set ratchets up with the work done, so its peak
			// is read after a fixed amount of work.
			if n == rssPasses {
				peak, err := srv.peakRSSMB()
				if err != nil {
					srv.stop()
					return nil, nil, err
				}
				rss = append(rss, peak)
			}
		}
		gcs += srv.gcs.Load()
		if err := srv.stop(); err != nil {
			return nil, nil, fmt.Errorf("stopping pvserve: %w", err)
		}
	}
	if err := startsDue(true); err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)

	// Each chunk is priced by the least-stolen tenth of its repetitions,
	// or as many as the latency sample count needs — the same count for
	// every chunk, so the request mix is exact. Steal comes in bursts, so
	// the smaller the share kept, the cleaner the windows it is drawn from.
	k := max(passes/10, repsNeeded)
	var passTime, cpu, stolen, ticks float64
	var lats, allLats, all []float64
	for _, cr := range reps {
		steal, tk := make([]int64, len(cr)), make([]int64, len(cr))
		for i := range cr {
			steal[i], tk[i] = cr[i].steal, cr[i].ticks
			stolen += float64(cr[i].steal)
			ticks += float64(cr[i].ticks)
			allLats = append(allLats, cr[i].lats...)
		}
		var durs, cpus []float64
		for _, i := range leastStolen(steal, tk, k) {
			durs = append(durs, cr[i].dur.Seconds())
			cpus = append(cpus, cr[i].cpu)
			lats = append(lats, cr[i].lats...)
		}
		passTime += median(durs)
		cpu += mean(cpus)
	}
	for p := 0; p < passes; p++ {
		var d time.Duration
		for ci := range reps {
			d += reps[ci][p].dur
		}
		all = append(all, float64(len(w.Docs))/d.Seconds())
	}
	sort.Float64s(lats)
	sort.Float64s(allLats)
	p50, _ := percentile(lats, 0.50)
	p90, ok90 := percentile(lats, 0.90)
	if !ok90 {
		return nil, nil, fmt.Errorf("only %d latency samples: too few for a p90", len(lats))
	}
	allP50, _ := percentile(allLats, 0.50)
	allP90, _ := percentile(allLats, 0.90)

	// setup_s is pvserve's own CPU time from exec to its last setup
	// verdict. A start takes about 10ms of wall-clock time, which one
	// descheduling of the VM or of the child moves by a large share (on a
	// 2-vCPU host with 30% steal the wall-clock median of a run ranged
	// 10.7-20ms while the CPU median stayed at 7.2-7.9ms); the work
	// itself, and any work moved into set-up, shows in the CPU time. The
	// wall-clock median is kept in the metadata.
	var setupCPU, setupWall []float64
	stolenStarts := 0
	for _, st := range starts {
		setupCPU = append(setupCPU, st.cpu)
		setupWall = append(setupWall, st.wall.Seconds())
		if st.steal > 0 {
			stolenStarts++
		}
	}
	okRatio := 1.0
	if t.attempted > 0 {
		okRatio = 1 - float64(t.failed)/float64(t.attempted)
	}
	values := map[string]float64{
		"setup_s":        median(setupCPU),
		"docs_per_s":     float64(len(w.Docs)) / passTime,
		"latency_p50_ms": p50,
		"latency_p90_ms": p90,
		"cpu_ms_per_mb":  cpu * 1000 / (float64(w.passBytes()) / (1 << 20)),
		"peak_rss_mb":    mean(rss),
		"ok_ratio":       okRatio,
	}
	meta["setup_starts"] = len(starts)
	meta["setup_wall_median_s"] = median(setupWall)
	meta["setup_starts_with_steal"] = stolenStarts
	meta["passes"] = passes
	meta["chunks_per_pass"] = len(chunks)
	meta["reps_priced_per_chunk"] = k
	meta["measured_s"] = elapsed.Seconds()
	meta["latency_samples"] = len(lats)
	meta["latency_p50_all_passes_ms"] = allP50
	meta["latency_p90_all_passes_ms"] = allP90
	meta["docs_per_pass"] = len(w.Docs)
	meta["requests_per_pass"] = len(w.Reqs)
	meta["input_bytes_per_pass"] = w.passBytes()
	meta["connections"] = w.Conns
	meta["steal_share"] = stolen / max(ticks, 1)
	meta["all_passes_docs_per_s"] = median(all)
	meta["peak_rss_per_process_mb"] = rss
	meta["pvserve_gc_cycles"] = gcs
	meta["loadgen_gc_cycles"] = ms1.NumGC - ms0.NumGC
	meta["fail_ratio"] = 1 - okRatio
	return values, meta, nil
}

// chunkStat is one measured repetition of a chunk of the sequence.
type chunkStat struct {
	dur          time.Duration
	steal, ticks int64     // host CPU ticks stolen / elapsed meanwhile
	cpu          float64   // pvserve CPU seconds
	lats         []float64 // request latencies, milliseconds
}

// measuredChunk runs one chunk and records its duration, the CPU pvserve
// spent, and the ticks the hypervisor stole meanwhile.
func (lg *loadgen) measuredChunk(c []int) (chunkStat, error) {
	st0, err := readCPUStat()
	if err != nil {
		return chunkStat{}, err
	}
	c0, err := lg.srv.cpuSeconds()
	if err != nil {
		return chunkStat{}, err
	}
	start := time.Now()
	lats := lg.run(c)
	d := time.Since(start)
	c1, err := lg.srv.cpuSeconds()
	if err != nil {
		return chunkStat{}, err
	}
	st1, err := readCPUStat()
	if err != nil {
		return chunkStat{}, err
	}
	return chunkStat{dur: d, steal: st1.steal - st0.steal, ticks: st1.total - st0.total, cpu: c1 - c0, lats: lats}, nil
}

// leastStolen returns the k repetitions (all of them if fewer) with the
// smallest steal share — host ticks stolen over ticks elapsed — in run
// order. Steal is time the hypervisor gave to other guests while this one
// had work: no property of the program, and on a shared host the largest
// source of run-to-run spread in wall-clock figures. Ranking by share
// rather than by stolen ticks keeps a repetition that the program itself
// made long from being dropped for spanning more ticks; equal shares are
// taken in a fixed pseudo-random order, so on a quiet host, where most
// repetitions show none, the pick spreads over the whole run.
func leastStolen(steal, ticks []int64, k int) []int {
	share := func(i int) float64 {
		if ticks[i] <= 0 {
			return 0
		}
		return float64(steal[i]) / float64(ticks[i])
	}
	idx := rand.New(rand.NewSource(int64(len(steal)))).Perm(len(steal))
	sort.SliceStable(idx, func(a, b int) bool { return share(idx[a]) < share(idx[b]) })
	out := idx[:min(k, len(idx))]
	sort.Ints(out)
	return out
}

// startWarm starts a pvserve for measuring: it compiles the workload's
// schemas and runs one untimed pass.
func (lg *loadgen) startWarm() (*server, error) {
	srv, err := startServer(lg.cfg.Bin, lg.w.Conns)
	if err != nil {
		return nil, err
	}
	for si := range lg.w.Setup {
		code, body, err := srv.doReady(http.MethodPost, lg.w.setupPath(), lg.w.Setup[si], 20*time.Second)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("setup request: HTTP %d: %s", code, firstLine(body))
		}
		if err != nil {
			srv.stop()
			return nil, err
		}
	}
	lg.srv = srv
	for _, c := range lg.w.chunks() {
		lg.run(c)
	}
	return srv, nil
}

// startStat is one cold start: its wall-clock time, pvserve's CPU time
// (seconds, all threads) and the host ticks stolen meanwhile.
type startStat struct {
	wall  time.Duration
	cpu   float64
	steal int64
}

// coldStart execs pvserve and times it until every schema of the workload
// has been compiled and its first verdict returned.
func (lg *loadgen) coldStart() (startStat, error) {
	st0, err := readCPUStat()
	if err != nil {
		return startStat{}, err
	}
	start := time.Now()
	srv, err := startServer(lg.cfg.Bin, 1)
	if err != nil {
		return startStat{}, err
	}
	for si := range lg.w.Setup {
		var code int
		var body []byte
		if si == 0 {
			code, body, err = srv.doReady(http.MethodPost, lg.w.setupPath(), lg.w.Setup[si], 20*time.Second)
		} else {
			code, body, err = srv.do(http.MethodPost, lg.w.setupPath(), lg.w.Setup[si], nil)
		}
		bad := 0
		if err == nil {
			err = checkSetupReply(code, body)
		}
		if err != nil {
			bad = 1
		}
		lg.t.add(1, bad, err)
	}
	st := startStat{wall: time.Since(start)}
	st.cpu, err = srv.cpuSeconds()
	st1, serr := readCPUStat()
	if err == nil {
		err = serr
	}
	st.steal = st1.steal - st0.steal
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return st, err
}

// checkSetupReply checks a cold start's reply: the small setup documents
// are valid.
func checkSetupReply(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("setup: HTTP %d: %s", code, firstLine(body))
	}
	var r struct {
		PotentiallyValid bool `json:"potentiallyValid"`
		Results          []struct {
			PotentiallyValid bool `json:"potentiallyValid"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("setup: %v", err)
	}
	if r.PotentiallyValid || (len(r.Results) == 1 && r.Results[0].PotentiallyValid) {
		return nil
	}
	return fmt.Errorf("setup: document rejected: %s", firstLine(body))
}

// run sends the chunk's requests (indexes into the sequence) over the
// workload's connections — a closed loop: each connection sends its next
// request when the previous reply has been read — and returns their
// latencies in milliseconds.
func (lg *loadgen) run(chunk []int) []float64 {
	lats := make([]float64, len(chunk))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < lg.w.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(chunk) {
					return
				}
				lats[i] = lg.exec(chunk[i]).Seconds() * 1000
			}
		}()
	}
	wg.Wait()
	return lats
}

// exec sends request ri, checks the reply and tallies its documents. It
// returns the request latency: send until the full result has been read.
func (lg *loadgen) exec(ri int) time.Duration {
	req := &lg.w.Reqs[ri]
	start := time.Now()
	var bad int
	var err error
	switch lg.w.Route {
	case routeBatch:
		bad, err = lg.execBatch(req)
	case routeRaw:
		bad, err = lg.execRaw(req)
	}
	lat := time.Since(start)
	if err != nil && bad == 0 {
		bad = len(req.Docs)
	}
	lg.mu.Lock()
	lg.t.add(len(req.Docs), bad, err)
	lg.mu.Unlock()
	return lat
}

func (lg *loadgen) execBatch(req *request) (int, error) {
	code, body, err := lg.srv.do(http.MethodPost, "/batch", req.Body, nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("/batch: HTTP %d: %s", code, firstLine(body))
	}
	var resp struct {
		Results []resultJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	return checkBatch(lg.w.docsOf(req), resp.Results)
}

func (lg *loadgen) execRaw(req *request) (int, error) {
	d := &lg.w.Docs[req.Docs[0]]
	code, body, err := lg.srv.do(http.MethodPost, "/check/raw?id="+d.ID, req.Body,
		map[string]string{"X-Schema-Ref": lg.w.Schemas[req.Schema].Ref})
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("/check/raw: HTTP %d: %s", code, firstLine(body))
	}
	var got resultJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return 0, err
	}
	if err := checkVerdictDoc(&got, d, 0, true); err != nil {
		return 1, err
	}
	return 0, nil
}
