// Command perfbench is the end-to-end benchmark of pvserve. One load
// generator process drives the real pvserve binary, run as a child, over
// loopback HTTP in a closed loop, through a fixed request sequence
// generated from the seed; every response is checked against an
// independent oracle. With -trace 1 it instead replays the sequence in
// process and times each layer's public entry point (see trace.go).
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 --pvserve BIN
//
// Workloads: ingest-mixed, raw-large. The metrics and their units are
// those BENCHMARK.json declares. The last stdout line is one JSON object
// {correct, attempted, failed, metrics}; the lines before it are a
// readable table and the run's ungated metadata.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: ingest-mixed or raw-large")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured duration (whole passes of the request sequence)")
	trace := flag.Int("trace", 0, "1 runs the in-process traced replay and reports the per-layer metrics")
	bin := flag.String("pvserve", ".bench_build/bin/pvserve", "pvserve binary to drive")
	workDir := flag.String("workdir", ".bench_build", "scratch directory (span files, trace cache directories)")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition: metric names, units and directions")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *bin, *workDir, *benchFile); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// coldStarts is how many pvserve starts setup_s is the median of: one
// start takes about 10ms, and a single sample moved 19% between runs of
// the same code. They are spread over the measured time.
const coldStarts = 41

func run(name string, seed int64, seconds float64, trace int, bin, workDir, benchFile string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	bf, err := loadBenchmark(benchFile)
	if err != nil {
		return err
	}
	workDir, err = filepath.Abs(workDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	genStart := time.Now()
	w, err := newWorkload(name, seed, false)
	if err != nil {
		return err
	}
	meta := runMeta(".")
	meta["workload"], meta["seed"], meta["trace"] = name, seed, trace
	meta["generate_s"] = time.Since(genStart).Seconds()

	var t tally
	var values map[string]float64
	var extra map[string]any
	defs := bf.endToEnd()
	if trace == 1 {
		defs = bf.PerLayer
		values, extra, err = runTrace(w, workDir, seed, &t)
	} else {
		if _, err := os.Stat(bin); err != nil {
			return fmt.Errorf("pvserve binary: %w", err)
		}
		cfg := e2eConfig{Bin: bin, Seconds: seconds, Starts: coldStarts}
		values, extra, err = runE2E(w, cfg, &t)
	}
	if err != nil {
		return err
	}
	for k, v := range extra {
		meta[k] = v
	}
	if len(t.errs) > 0 {
		meta["first_failures"] = t.errs
	}
	res, err := t.build(defs, values)
	if err != nil {
		return err
	}
	printTable(os.Stdout, name, defs, res)
	if table, ok := extra["layers"].(map[string][3]float64); ok {
		printLayers(os.Stdout, table)
	}
	if err := writeJSONLine(os.Stdout, map[string]any{"meta": meta}); err != nil {
		return err
	}
	return writeJSONLine(os.Stdout, res)
}
