package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/gen"
)

// benchCorpus builds a mixed Play-DTD corpus: valid, stripped and corrupted
// documents, the firehose shape the engine is for.
func benchCorpus(n int) []Doc {
	rng := rand.New(rand.NewSource(7))
	d := dtd.MustParse(dtd.Play)
	docs := make([]Doc, 0, n)
	for i := 0; i < n; i++ {
		doc := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 8, MaxRepeat: 3})
		switch i % 3 {
		case 1:
			gen.Strip(rng, doc, 0.3)
		case 2:
			gen.Corrupt(rng, d, doc)
		}
		docs = append(docs, Doc{ID: fmt.Sprint(i), Content: doc.String()})
	}
	return docs
}

// asBytes converts a corpus to byte-path documents.
func asBytes(docs []Doc) []Doc {
	out := make([]Doc, len(docs))
	for i, d := range docs {
		out[i] = Doc{ID: d.ID, Bytes: []byte(d.Content)}
	}
	return out
}

// BenchmarkEngineBatchPath measures CheckBatch throughput and allocs/op
// over a 1k-document mixed corpus in both verdict modes. The documents
// carry Content, the form the JSON routes hand the engine; a Bytes batch
// differs by exactly the one conversion per document
// (TestContentBatchAllocsMatchBytes gates that).
func BenchmarkEngineBatchPath(b *testing.B) {
	docs := benchCorpus(1000)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Content))
	}
	for _, mode := range []struct {
		name   string
		pvOnly bool
	}{{"full", false}, {"pvonly", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := New(Config{Workers: 4, PVOnly: mode.pvOnly})
			s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, _ := e.CheckBatch(s, docs)
				if len(results) != len(docs) {
					b.Fatal("missing results")
				}
			}
		})
	}
}

// measureBatchAllocs runs CheckBatch over docs several times and returns
// the steady-state allocation count per batch.
func measureBatchAllocs(tb testing.TB, e *Engine, s *Schema, docs []Doc, rounds int) float64 {
	tb.Helper()
	e.CheckBatch(s, docs) // warm pools
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < rounds; i++ {
		if results, _ := e.CheckBatch(s, docs); len(results) != len(docs) {
			tb.Fatal("missing results")
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds)
}

// contentAllocSlack is the fixed allowance per batch on top of one
// conversion per document. runtime.MemStats counts the whole process, and
// a garbage collection inside the measured rounds empties the sync.Pools,
// so a batch may rebuild a few pooled checkers (with their frame stacks
// and recognizers) that the other measurement found warm; under -race the
// excess over one per document has reached about 65. One more allocation
// per document would add 1000, so the slack cannot hide that.
const contentAllocSlack = 200

// TestContentBatchAllocsMatchBytes pins the one-byte-path design: a batch
// of Content documents is converted to bytes once per document at the API
// edge and then takes exactly the Bytes path, so over a 1k-document mixed
// corpus it allocates no more than the same Bytes batch plus one
// allocation per document (plus contentAllocSlack).
func TestContentBatchAllocsMatchBytes(t *testing.T) {
	docs := benchCorpus(1000)
	byteDocs := asBytes(docs)
	e := New(Config{Workers: 4})
	s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	contentAllocs := measureBatchAllocs(t, e, s, docs, 5)
	byteAllocs := measureBatchAllocs(t, e, s, byteDocs, 5)
	t.Logf("allocs per 1k-doc batch: content=%.0f bytes=%.0f (%+.0f)",
		contentAllocs, byteAllocs, contentAllocs-byteAllocs)
	if limit := byteAllocs + float64(len(docs)) + contentAllocSlack; contentAllocs > limit {
		t.Errorf("Content batch allocates %.0f, Bytes batch %.0f — want at most %.0f (one conversion per document plus %d slack)",
			contentAllocs, byteAllocs, limit, contentAllocSlack)
	}
}

// BenchmarkEngineBatch measures batch throughput across worker counts; CI
// runs it once (-benchtime=1x) as a compile-and-run guard.
func BenchmarkEngineBatch(b *testing.B) {
	docs := benchCorpus(256)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Content))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := New(Config{Workers: workers})
			s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, _ := e.CheckBatch(s, docs)
				if len(results) != len(docs) {
					b.Fatal("missing results")
				}
			}
		})
	}
}

// TestCompletionSerializationPooledAllocs pins the byte-path completion
// output satellite (the allocation drop BenchmarkEngineComplete reports):
// serializing a completed document through the pooled buffer must cost at
// most the output string itself plus a couple of amortized pool/growth
// allocations — not the strings.Builder growth chain plus a replacer per
// text node that doc.String() paid.
func TestCompletionSerializationPooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the pin runs in the non-race CI lane")
	}
	rng := rand.New(rand.NewSource(11))
	d := dtd.MustParse(dtd.Play)
	doc := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 8, MaxRepeat: 4})
	parsed, err := dom.Parse(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	textNodes := 0
	parsed.Root.Walk(func(n *dom.Node) bool {
		if n.Kind == dom.TextNode {
			textNodes++
		}
		return true
	})
	if textNodes < 20 {
		t.Fatalf("corpus document too small to be meaningful (%d text nodes)", textNodes)
	}
	serializeDoc(parsed) // warm the pool so growth is out of the measurement
	allocs := testing.AllocsPerRun(50, func() {
		if out := serializeDoc(parsed); out == "" {
			t.Fatal("empty serialization")
		}
	})
	// One allocation for the output string; allow two more for pool
	// internals. The old path's floor was ~2 allocations per text node
	// (replacer + machine) plus the builder growth chain.
	if allocs > 3 {
		t.Errorf("pooled serialization allocates %.0f per document (%d text nodes), want <= 3", allocs, textNodes)
	}
}

// completableCorpus builds a completion-workload corpus: tag-stripped (and
// some already-valid) play documents, all potentially valid.
func completableCorpus(n int) []Doc {
	rng := rand.New(rand.NewSource(9))
	d := dtd.MustParse(dtd.Play)
	docs := make([]Doc, 0, n)
	for i := 0; i < n; i++ {
		doc := gen.GenValid(rng, d, "play", gen.DocOptions{MaxDepth: 7, MaxRepeat: 2})
		if i%4 != 0 {
			gen.Strip(rng, doc, 0.3)
		}
		docs = append(docs, Doc{ID: fmt.Sprint(i), Content: doc.String()})
	}
	return docs
}

// BenchmarkEngineComplete measures batched completion throughput across
// worker counts (the X9 workload); CI runs it once (-benchtime=1x) as a
// compile-and-run guard.
func BenchmarkEngineComplete(b *testing.B) {
	docs := completableCorpus(128)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Content))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := New(Config{Workers: workers})
			s, err := e.Compile(DTDSource, dtd.Play, "play", CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, stats := e.CompleteBatch(s, docs, true)
				if len(results) != len(docs) || stats.Malformed != 0 {
					b.Fatal("completion corpus must be completable")
				}
			}
		})
	}
}
