package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
)

// tamper wraps h and rewrites the first result of every JSON reply on
// path through mutate.
func tamper(h http.Handler, path string, mutate func(res map[string]any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		mutate(body["results"].([]any)[0].(map[string]any))
		w.WriteHeader(rec.Code)
		_ = json.NewEncoder(w).Encode(body)
	})
}

// runPass sends one verified pass of w to h and returns the tally.
func runPass(t *testing.T, w *workload, h http.Handler) *tally {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	var tl tally
	lg := &loadgen{w: w, t: &tl, srv: &server{base: ts.URL, client: ts.Client()}}
	for _, body := range w.Setup {
		if code, _, err := lg.srv.do(http.MethodPost, w.setupPath(), body, nil); err != nil || code != http.StatusOK {
			t.Fatalf("setup request: HTTP %d %v", code, err)
		}
	}
	all := make([]int, len(w.Reqs))
	for i := range all {
		all[i] = i
	}
	lg.run(all)
	return &tl
}

func TestOracleAgreesWithEngine(t *testing.T) {
	for _, name := range []string{"ingest-mixed", "raw-large"} {
		w, err := newWorkload(name, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		tl := runPass(t, w, engine.NewServer(engine.New(engine.Config{})))
		if tl.failed != 0 || tl.attempted != int64(len(w.Docs)) {
			t.Errorf("%s: attempted %d failed %d (%v), want %d attempted, none failed",
				name, tl.attempted, tl.failed, tl.errs, len(w.Docs))
		}
	}
}

func TestInjectedWrongVerdictIsCounted(t *testing.T) {
	w, err := newWorkload("ingest-mixed", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	h := tamper(engine.NewServer(engine.New(engine.Config{})), "/batch", func(res map[string]any) {
		res["potentiallyValid"] = !res["potentiallyValid"].(bool)
	})
	tl := runPass(t, w, h)
	// One flipped verdict per request, each a failed document.
	if tl.failed != int64(len(w.Reqs)) || tl.attempted != int64(len(w.Docs)) {
		t.Errorf("attempted %d failed %d, want %d attempted and %d failed",
			tl.attempted, tl.failed, len(w.Docs), len(w.Reqs))
	}
}

// TestBrokenCompletionFailsOracle checks the completion oracle the traced
// run applies to every completion: a genuine one passes, one whose output
// lost its last element does not.
func TestBrokenCompletionFailsOracle(t *testing.T) {
	w, err := newWorkload("ingest-mixed", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	drafts, err := draftSample(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{})
	defer e.Close()
	for i := range drafts {
		d := &drafts[i]
		si := w.Schemas[d.Schema]
		s, err := e.Compile(engine.DTDSource, si.Def.Source, si.Def.Root, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := e.CompleteBatch(s, []engine.Doc{{ID: d.ID, Content: string(d.Content)}}, true)
		x := res[0]
		got := completeJSON{ID: x.ID, Completed: x.Completed, AlreadyValid: x.AlreadyValid,
			Inserted: x.Inserted, Output: x.Output, Detail: x.Detail, Insertions: insertionsOf(x.Insertions)}
		if x.Err != nil {
			got.Error = x.Err.Error()
		}
		if err := checkCompletion(si, d, &got); err != nil {
			t.Fatalf("genuine completion rejected: %v", err)
		}
		if k := strings.LastIndex(got.Output, "<"); k > 0 {
			got.Output = got.Output[:k]
		}
		if checkCompletion(si, d, &got) == nil {
			t.Errorf("%s: completion without its last element passed the oracle", d.ID)
		}
	}
}

func TestReceiptWithWrongVerdictFails(t *testing.T) {
	w, err := newWorkload("ingest-mixed", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{})
	req := &w.Reqs[0]
	s, err := e.Compile(engine.DTDSource, w.Schemas[req.Schema].Def.Source, w.Schemas[req.Schema].Def.Root, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var docs []engine.Doc
	for _, di := range req.Docs {
		docs = append(docs, engine.Doc{ID: w.Docs[di].ID, Content: string(w.Docs[di].Content)})
	}
	_, _, rec, err := e.CheckBatchReceipt(s, docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReceipt(w, w.docsOf(req), rec); err != nil {
		t.Fatalf("genuine receipt rejected: %v", err)
	}
	// A receipt whose document 0 claims another verdict: internally
	// consistent, but not what the oracle says.
	d := &w.Docs[req.Docs[0]]
	d.Want.PV, d.Want.Valid = !d.Want.PV, false
	if err := checkReceipt(w, w.docsOf(req), rec); err == nil {
		t.Fatal("receipt checked against a changed reference verdict still passed")
	}
}

func TestUnwrapInsertions(t *testing.T) {
	for _, c := range []struct {
		in, out string
		ins     []insertionJSON
		ok      bool
	}{
		{"<a>x<c/></a>", "<a><b>x</b><c/></a>", []insertionJSON{{"/a", 0, "b"}}, true},
		{"<a><c/></a>", "<a><b><b/><c/></b></a>", []insertionJSON{{"/a", 0, "b"}, {"/a/b[0]", 0, "b"}}, true},
		// Character data moved, elements reordered: no witness helps.
		{"<a>x<c/></a>", "<a><c/>x</a>", nil, false},
		{"<a><b/><c/></a>", "<a><c/><b/></a>", nil, false},
		// A record naming no element, and a wrong witness.
		{"<a>x</a>", "<a><b>x</b></a>", []insertionJSON{{"/a", 0, "c"}}, false},
		{"<a>x<c/></a>", "<a><b>x</b><c/></a>", []insertionJSON{{"/a", 1, "c"}}, false},
	} {
		in, out := parseRoot(t, c.in), parseRoot(t, c.out)
		err := unwrapInsertions(out, c.ins)
		ok := err == nil && out.String() == in.String()
		if ok != c.ok {
			t.Errorf("unwrap %v from %s: got %s (%v), want extension=%v", c.ins, c.out, out, err, c.ok)
		}
	}
}

func TestParseNDJSON(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"id":"a","index":0,"potentiallyValid":true,"valid":true}` + "\n\n")
	buf.WriteString(`{"id":"b","index":1,"potentiallyValid":false,"valid":false,"detail":"x"}` + "\n")
	rs, err := parseNDJSON(buf.Bytes())
	if err != nil || len(rs) != 2 || rs[1].ID != "b" || rs[1].PotentiallyValid {
		t.Fatalf("parseNDJSON = %+v, %v", rs, err)
	}
	if _, err := parseNDJSON([]byte("{")); err == nil {
		t.Fatal("parseNDJSON accepted a torn line")
	}
}
