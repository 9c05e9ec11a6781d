package main

import (
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/dom"
)

func parseRoot(t *testing.T, s string) *dom.Node {
	t.Helper()
	d, err := dom.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return d.Root
}

// TestSmokeWorkloads runs every workload, shrunk to a few documents,
// against a real pvserve built from this checkout, then its traced run,
// and requires every reply to match the oracle.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pvserve and starts it several times")
	}
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pvserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/pvserve").CombinedOutput(); err != nil {
		t.Fatalf("building pvserve: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			var tl tally
			cfg := e2eConfig{Bin: bin, Seconds: 0.2, Starts: 3}
			values, _, err := runE2E(w, cfg, &tl)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tl.build(bf.endToEnd(), values)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Metrics["ok_ratio"].Value != 1 {
				t.Fatalf("attempted %d failed %d: %v", res.Attempted, res.Failed, tl.errs)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, m.Value)
				}
			}

			w, err = newWorkload(name, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			var tt tally
			values, _, err = runTrace(w, t.TempDir(), 3, &tt)
			if err != nil {
				t.Fatal(err)
			}
			res, err = tt.build(bf.PerLayer, values)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: attempted %d failed %d: %v", res.Attempted, res.Failed, tt.errs)
			}
		})
	}
}
