package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness smoke test is itself a micro-benchmark")
	}
	tables := All(true)
	if len(tables) != 14 {
		t.Fatalf("want 14 tables, got %d", len(tables))
	}
	byName := map[string]*Table{}
	for _, tb := range tables {
		byName[tb.Name] = tb
		if len(tb.Rows) == 0 {
			t.Errorf("table %s has no rows", tb.Name)
		}
		out := tb.String()
		if !strings.Contains(out, tb.Name) {
			t.Errorf("table rendering missing name:\n%s", out)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("table %s: row width %d vs header %d", tb.Name, len(row), len(tb.Header))
			}
		}
	}
	// X6: Theorem 2 — PV rate must be 100% in every row.
	for _, row := range byName["closure"].Rows {
		if row[2] != "100%" {
			t.Errorf("closure violated: %v", row)
		}
	}
	// X3: all depth rows must accept.
	for _, row := range byName["depth"].Rows {
		if row[2] != "true" {
			t.Errorf("depth row rejected: %v", row)
		}
	}
	// X3: recognizer count grows with depth.
	var prev int
	for i, row := range byName["depth"].Rows {
		nRec, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && nRec <= prev {
			t.Errorf("recognizer count not increasing: %v", byName["depth"].Rows)
		}
		prev = nRec
	}
	// X7: every worker count must move documents; speedup is hardware
	// dependent (single-CPU CI shows ~1x), so only positivity is asserted.
	if len(byName["throughput"].Rows) != 4 {
		t.Errorf("throughput rows: %v", byName["throughput"].Rows)
	}
	for _, row := range byName["throughput"].Rows {
		dps, err := strconv.ParseFloat(row[3], 64)
		if err != nil || dps <= 0 {
			t.Errorf("throughput row has no progress: %v", row)
		}
	}
	// X9: completion moves documents at every worker count, inserts a
	// positive, worker-independent number of elements per batch (the
	// differential guarantee), and renders to JSON.
	if rows := byName["completion"].Rows; len(rows) != 4 {
		t.Errorf("completion rows: %v", rows)
	} else {
		for _, row := range rows {
			dps, err := strconv.ParseFloat(row[3], 64)
			if err != nil || dps <= 0 {
				t.Errorf("completion row has no progress: %v", row)
			}
			if row[5] != rows[0][5] || row[6] != rows[0][6] {
				t.Errorf("completion counts vary across workers: %v vs %v", row, rows[0])
			}
		}
		if ins, err := strconv.Atoi(rows[0][5]); err != nil || ins <= 0 {
			t.Errorf("completion inserted nothing: %v", rows[0])
		}
	}
	if out, err := byName["completion"].JSON(); err != nil || !strings.Contains(string(out), `"name": "completion"`) {
		t.Errorf("completion JSON: %v %s", err, out)
	}
	// X10: store-op and batch rows make progress at every shard count, and
	// the cold-start rows pin the disk tier's contract — the warm start
	// compiles nothing and rehydrates everything from disk.
	{
		rows := byName["schemastore"].Rows
		if len(rows) < 3 {
			t.Fatalf("schemastore rows: %v", rows)
		}
		var warm, cold []string
		for _, row := range rows {
			switch row[0] {
			case "coldstart/compile":
				cold = row
			case "coldstart/warmdisk":
				warm = row
			default:
				ops, err1 := strconv.ParseFloat(row[1], 64)
				dps, err2 := strconv.ParseFloat(row[3], 64)
				if err1 != nil || err2 != nil || ops <= 0 || dps <= 0 {
					t.Errorf("schemastore shard row has no progress: %v", row)
				}
			}
		}
		if cold == nil || warm == nil {
			t.Fatalf("schemastore missing cold-start rows: %v", rows)
		}
		if warm[6] != "0" {
			t.Errorf("warm disk start compiled schemas: %v", warm)
		}
		if warm[7] == "0" || cold[6] == "0" {
			t.Errorf("cold-start accounting wrong: cold %v warm %v", cold, warm)
		}
	}
	// X11: both ingest paths make progress at every worker count, and the
	// submit latency stays orders of magnitude below one corpus pass (the
	// decoupling the async path exists for).
	if rows := byName["asyncingest"].Rows; len(rows) != 4 {
		t.Errorf("asyncingest rows: %v", rows)
	} else {
		for _, row := range rows {
			syncDps, err1 := strconv.ParseFloat(row[3], 64)
			asyncDps, err2 := strconv.ParseFloat(row[4], 64)
			if err1 != nil || err2 != nil || syncDps <= 0 || asyncDps <= 0 {
				t.Errorf("asyncingest row has no progress: %v", row)
			}
			submitNs, err := strconv.ParseInt(row[2], 10, 64)
			if err != nil || submitNs <= 0 {
				t.Errorf("asyncingest submit latency missing: %v", row)
			}
			docs, _ := strconv.Atoi(row[1])
			corpusNs := float64(docs) / asyncDps * 1e9
			if float64(submitNs) > corpusNs/2 {
				t.Errorf("submit latency %dns not decoupled from corpus pass %.0fns: %v", submitNs, corpusNs, row)
			}
		}
	}
	// X12: all three store modes move documents; the fsynced WAL cannot
	// beat the in-memory submit (submit_vs_mem >= 1) — absolute latencies
	// are disk dependent, so only the ordering is asserted.
	if rows := byName["durability"].Rows; len(rows) != 3 {
		t.Errorf("durability rows: %v", rows)
	} else {
		for _, row := range rows {
			dps, err := strconv.ParseFloat(row[4], 64)
			if err != nil || dps <= 0 {
				t.Errorf("durability row has no progress: %v", row)
			}
		}
		ratio, err := strconv.ParseFloat(strings.TrimSuffix(rows[2][5], "x"), 64)
		if err != nil || ratio < 1 {
			t.Errorf("fsynced WAL submit faster than memory: %v", rows[2])
		}
	}
	// X13: every streaming row makes progress; the streamed file row's
	// peak heap must stay well under the read-then-check row's, which
	// carries the whole file (the bound the experiment exists to show).
	// Throughput ratios are hardware dependent and asserted only at full
	// scale (the committed bench/X13.json).
	{
		rows := byName["streaming"].Rows
		if len(rows) != 6 {
			t.Fatalf("streaming rows: %v", rows)
		}
		var readPeak, streamPeak float64
		for _, row := range rows {
			mbps, err := strconv.ParseFloat(row[3], 64)
			if err != nil || mbps <= 0 {
				t.Errorf("streaming row has no progress: %v", row)
			}
			peak, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				t.Errorf("streaming row peak unparsable: %v", row)
			}
			switch row[1] {
			case "read-then-check":
				readPeak = peak
			case "streamed":
				streamPeak = peak
			}
		}
		if streamPeak >= readPeak/2 {
			t.Errorf("streamed peak heap %.2fMB not bounded vs read-then-check %.2fMB", streamPeak, readPeak)
		}
	}
	// X14: both modes move documents; the overhead percentage is machine
	// dependent (the <=5% bar is pinned by the committed bench/X14.json),
	// so only progress and row shape are asserted here.
	if rows := byName["receipt"].Rows; len(rows) != 2 {
		t.Errorf("receipt rows: %v", rows)
	} else {
		if rows[0][0] != "off" || rows[1][0] != "on" {
			t.Errorf("receipt mode rows out of order: %v", rows)
		}
		for _, row := range rows {
			dps, err := strconv.ParseFloat(row[3], 64)
			if err != nil || dps <= 0 {
				t.Errorf("receipt row has no progress: %v", row)
			}
		}
	}
	// X15: six rows (three mixes × fast/slow), every one making progress,
	// and the fast mode must not lose to recognizer-only on any mix — the
	// fast path is a strict optimization. The >=2x valid-heavy bar is
	// machine dependent and pinned by the committed bench/X15.json; quick
	// mode asserts ordering only.
	if rows := byName["twotier"].Rows; len(rows) != 6 {
		t.Errorf("twotier rows: %v", rows)
	} else {
		for i := 0; i < len(rows); i += 2 {
			if rows[i][1] != "fast" || rows[i+1][1] != "slow" || rows[i][0] != rows[i+1][0] {
				t.Errorf("twotier mode rows out of order: %v %v", rows[i], rows[i+1])
				continue
			}
			fastDps, err1 := strconv.ParseFloat(rows[i][4], 64)
			slowDps, err2 := strconv.ParseFloat(rows[i+1][4], 64)
			if err1 != nil || err2 != nil || fastDps <= 0 || slowDps <= 0 {
				t.Errorf("twotier rows have no progress: %v %v", rows[i], rows[i+1])
			}
			if fastDps < slowDps {
				t.Errorf("twotier %s: fast path slower than recognizer-only: %v vs %v", rows[i][0], rows[i], rows[i+1])
			}
		}
	}
	// X2: Earley must be slower than the ECRecognizer on the largest input.
	last := byName["earley"].Rows[len(byName["earley"].Rows)-1]
	fast, _ := strconv.Atoi(last[1])
	slow, _ := strconv.Atoi(last[2])
	if slow <= fast {
		t.Errorf("Earley (%d ns) not slower than ECRecognizer (%d ns)", slow, fast)
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	d := timeIt(5*time.Millisecond, func() {
		calls++
		time.Sleep(100 * time.Microsecond)
	})
	if calls < 2 {
		t.Errorf("timeIt ran only %d calls", calls)
	}
	if d <= 0 {
		t.Errorf("per-call duration %v", d)
	}
}
