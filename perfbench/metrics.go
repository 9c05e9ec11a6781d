package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef names one reported metric, as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// workloads it gates, the end-to-end metrics a user of pvserve sees
// (measured with tracing off against the real binary; fail_ratio is
// reported as ok_ratio = 1 - failed/attempted so that the gated value is
// never zero) and the per-layer metrics of the traced run.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json.
func loadBenchmark(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// endToEnd lists the end-to-end metric definitions.
func (b *benchmarkFile) endToEnd() []metricDef {
	out := make([]metricDef, len(b.EndToEnd))
	for i, m := range b.EndToEnd {
		out[i] = m.metricDef
	}
	return out
}

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile is only reported when at least this many samples are
// worse than it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	i = max(0, min(i, n-1))
	return sorted[i], n-1-i >= minBeyond
}

// median returns the middle value (the mean of the middle two for an even
// count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts attempted and failed operations (documents) and keeps the
// first few failure messages.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) add(n, bad int, err error) {
	t.attempted += int64(n)
	t.failed += int64(bad)
	if err != nil && len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// build assembles the result line from measured values, in the order and
// with the units of defs; a metric missing from values is an error.
func (t *tally) build(defs []metricDef, values map[string]float64) (result, error) {
	r := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// printTable writes the metrics one per line, with units, for people.
func printTable(w io.Writer, workload string, defs []metricDef, r result) {
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d correct=%v\n", workload, r.Attempted, r.Failed, r.Correct)
	if r.Attempted > 0 {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", "fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
}

// writeJSONLine writes v as one compact JSON line.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
