package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.01, 1}, {0.999, 100}} {
		if got, _ := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	// p90 of 100 samples leaves exactly ten above it; of 99, nine.
	if _, ok := percentile(seq(100), 0.9); !ok {
		t.Error("p90 of 100 samples has ten beyond it and should be reportable")
	}
	if _, ok := percentile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples has nine beyond it and should not be reportable")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples should not be reportable")
	}
	if _, ok := percentile(seq(15), 0.5); ok {
		t.Error("15 samples leave fewer than ten beyond the median")
	}
	if _, ok := percentile(seq(21), 0.5); !ok {
		t.Error("the median of 21 samples has ten beyond it")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 3}) {
		t.Error("median modified its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}

func TestLeastStolen(t *testing.T) {
	// Ranked by share of ticks stolen, returned in run order: repetition 3
	// lost more ticks than 1 but a smaller share of its time.
	steal := []int64{0, 2, 0, 3, 1, 0}
	ticks := []int64{4, 4, 4, 30, 4, 4}
	if got := leastStolen(steal, ticks, 4); !reflect.DeepEqual(got, []int{0, 2, 3, 5}) {
		t.Errorf("leastStolen = %v, want [0 2 3 5]", got)
	}
	if got := leastStolen([]int64{2, 1}, []int64{4, 4}, 5); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("leastStolen with k beyond the count = %v, want [0 1]", got)
	}
	// With no steal at all the pick is spread over the run, not its start,
	// and the same on every call.
	none := make([]int64, 40)
	tk := make([]int64, 40)
	for i := range tk {
		tk[i] = 3
	}
	got := leastStolen(none, tk, 10)
	if got[len(got)-1] < 20 {
		t.Errorf("leastStolen over equal shares = %v, all from the first half of the run", got)
	}
	if again := leastStolen(none, tk, 10); !reflect.DeepEqual(got, again) {
		t.Errorf("leastStolen is not deterministic: %v then %v", got, again)
	}
}

// TestBenchmarkFile checks BENCHMARK.json, which the benchmark reads for
// its metric names and units: names and units of the allowed shape, a
// direction for every metric, a bound for every end-to-end one, and only
// workloads the code runs.
func TestBenchmarkFile(t *testing.T) {
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	runnable := map[string]bool{}
	for _, w := range workloadNames {
		runnable[w] = true
	}
	seen := map[string]bool{}
	for _, w := range b.Workloads {
		if !runnable[w.Name] || seen[w.Name] {
			t.Errorf("workload %s is repeated or not one the code runs (%v)", w.Name, workloadNames)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no end-to-end or no per-layer metrics")
	}
	for _, d := range append(b.endToEnd(), b.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q, which does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestLayerMap checks that layers.json describes every gated workload
// and metric, and that its layer → end-to-end map names only end-to-end
// metrics of gated workloads.
func TestLayerMap(t *testing.T) {
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]struct {
			Definition string `json:"definition"`
		} `json:"end_to_end"`
		PerLayer map[string]struct {
			Entry string   `json:"entry"`
			Moves []string `json:"moves"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, w := range b.Workloads {
		gated[w.Name] = true
		if m.Workloads[w.Name] == nil {
			t.Errorf("layers.json does not describe workload %s", w.Name)
		}
	}
	e2e := map[string]bool{}
	for _, d := range b.EndToEnd {
		e2e[d.Name] = true
		if m.EndToEnd[d.Name].Definition == "" {
			t.Errorf("layers.json does not define end-to-end metric %s", d.Name)
		}
	}
	if len(m.Workloads) != len(b.Workloads) || len(m.EndToEnd) != len(b.EndToEnd) || len(m.PerLayer) != len(b.PerLayer) {
		t.Errorf("layers.json describes %d workloads, %d end-to-end and %d per-layer metrics; BENCHMARK.json has %d, %d, %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	moveRE := regexp.MustCompile(`^([a-z0-9_]+)@([a-z-]+)$`)
	for _, d := range b.PerLayer {
		l, ok := m.PerLayer[d.Name]
		if !ok || l.Entry == "" {
			t.Errorf("layers.json gives per-layer metric %s no entry point", d.Name)
		}
		for _, mv := range l.Moves {
			sub := moveRE.FindStringSubmatch(mv)
			if sub == nil || !e2e[sub[1]] || !gated[sub[2]] {
				t.Errorf("per_layer %s moves %q, which names no end-to-end metric@workload", d.Name, mv)
			}
		}
	}
}
