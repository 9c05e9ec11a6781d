package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
)

// schemaDef is one schema of the corpus: a fixture DTD, its root, and the
// shape of the documents generated for it on the tree-sized workloads.
type schemaDef struct {
	Name   string
	Source string
	Root   string
	// Ingest shapes the ingest-mixed documents; Draft shapes the drafts
	// the traced run completes. TEI-Lite drafts are kept shallow:
	// completion cost grows steeply with depth and repetition there (an
	// 8KB draft costs ~50ms p50 and ~470ms p90), and an editor completes
	// a section at a time.
	Ingest gen.DocOptions
	Draft  gen.DocOptions
}

// corpusSchemas are the three schemas every workload mixes: the play DTD
// (non-recursive), TEI-Lite (PV-weak recursion through div and inline
// markup) and the inline-recursive DTD (b/i nest through star-groups).
var corpusSchemas = []schemaDef{
	{Name: "play", Source: dtd.Play, Root: "play",
		Ingest: gen.DocOptions{MaxDepth: 8, MaxRepeat: 3}, Draft: gen.DocOptions{MaxDepth: 8, MaxRepeat: 3}},
	{Name: "tei", Source: dtd.TEILite, Root: "TEI",
		Ingest: gen.DocOptions{MaxDepth: 7, MaxRepeat: 3}, Draft: gen.DocOptions{MaxDepth: 6, MaxRepeat: 2}},
	{Name: "inline", Source: dtd.WeakRecursive, Root: "p",
		Ingest: gen.DocOptions{MaxDepth: 8, MaxRepeat: 4}, Draft: gen.DocOptions{MaxDepth: 8, MaxRepeat: 4}},
}

// Route names the HTTP shape a workload drives.
const (
	routeBatch = "batch" // POST /batch, sync
	routeRaw   = "raw"   // POST /check/raw
)

// document is one generated input with its oracle verdict.
type document struct {
	ID      string
	Schema  int
	Content []byte
	Want    verdict
}

// request is one HTTP request of a workload's fixed sequence.
type request struct {
	Schema int
	Docs   []int  // indexes into workload.Docs
	Body   []byte // the encoded request body
	Bytes  int64  // document bytes the request carries
}

// workload is a seeded, fully generated benchmark input: the schemas, the
// documents with their reference verdicts, the request sequence one pass
// sends, and the small per-schema documents the cold starts check.
type workload struct {
	Name    string
	Route   string
	Conns   int
	Schemas []*schemaInfo
	Docs    []document
	Reqs    []request
	// Setup holds, per schema, the body of the request a cold start sends
	// to compile that schema and get its first verdict.
	Setup [][]byte
}

// workloadNames lists the workloads the benchmark can run.
var workloadNames = []string{"ingest-mixed", "raw-large"}

// sizing is the amount of work one pass of a workload carries.
type sizing struct {
	ReqsPerSchema int
	DocsPerReq    int
	RawBytes      []int64 // raw-large: document sizes, one request each, per schema
}

func sizingFor(name string, small bool) sizing {
	switch {
	case small && name == "raw-large":
		return sizing{RawBytes: []int64{300 << 10}}
	case small:
		return sizing{ReqsPerSchema: 1, DocsPerReq: 8}
	case name == "ingest-mixed":
		return sizing{ReqsPerSchema: 12, DocsPerReq: 64}
	default: // raw-large: twelve documents, enough that ten passes give the p90 its samples
		return sizing{RawBytes: []int64{3 << 19, 2 << 20, 5 << 19, 3 << 20}}
	}
}

// batchBody is the JSON envelope of /batch.
type batchBody struct {
	Schema    string    `json:"schema"`
	Root      string    `json:"root"`
	Documents []bodyDoc `json:"documents"`
}

type bodyDoc struct {
	ID      string `json:"id"`
	Content string `json:"content"`
}

// newWorkload generates the named workload from seed. small shrinks every
// pass to a handful of documents (for the benchmark's own tests). The
// oracle verdict of every document is computed here, before any timing.
func newWorkload(name string, seed int64, small bool) (*workload, error) {
	w := &workload{Name: name, Conns: 1}
	switch name {
	case "ingest-mixed":
		w.Route, w.Conns = routeBatch, 2
	case "raw-large":
		w.Route = routeRaw
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, def := range corpusSchemas {
		si, err := newSchemaInfo(def)
		if err != nil {
			return nil, err
		}
		w.Schemas = append(w.Schemas, si)
	}
	rng := rand.New(rand.NewSource(seed))
	sz := sizingFor(name, small)
	if w.Route == routeRaw {
		if err := w.genRaw(rng, sz); err != nil {
			return nil, err
		}
	} else {
		w.genTrees(rng, sz)
	}
	for i := range w.Docs {
		d := &w.Docs[i]
		v, err := w.Schemas[d.Schema].oracle(d.Content)
		if err != nil {
			return nil, fmt.Errorf("oracle on %s: %w", d.ID, err)
		}
		d.Want = v
	}
	for i := range w.Reqs {
		if err := w.encode(&w.Reqs[i]); err != nil {
			return nil, err
		}
	}
	for si := range w.Schemas {
		body, err := w.setupBody(rng, si)
		if err != nil {
			return nil, err
		}
		w.Setup = append(w.Setup, body)
	}
	return w, nil
}

// genTrees builds the request sequence of the tree-sized workloads:
// requests rotate over the schemas; within a batch 2/5 of the documents
// are valid, 2/5 tag-stripped (potentially valid, mostly invalid) and 1/5
// corrupted, shuffled.
func (w *workload) genTrees(rng *rand.Rand, sz sizing) {
	n := sz.ReqsPerSchema * len(w.Schemas)
	for r := 0; r < n; r++ {
		si := r % len(w.Schemas)
		def := w.Schemas[si].Def
		req := request{Schema: si}
		for k := 0; k < sz.DocsPerReq; k++ {
			root := gen.GenValid(rng, w.Schemas[si].DTD, def.Root, def.Ingest)
			switch k % 5 {
			case 2, 3:
				gen.Strip(rng, root, 0.3)
			case 4:
				gen.Corrupt(rng, w.Schemas[si].DTD, root)
			}
			req.Docs = append(req.Docs, len(w.Docs))
			w.Docs = append(w.Docs, document{
				ID:      fmt.Sprintf("%s-%d", def.Name, len(w.Docs)),
				Schema:  si,
				Content: []byte(root.String()),
			})
		}
		rng.Shuffle(len(req.Docs), func(i, j int) { req.Docs[i], req.Docs[j] = req.Docs[j], req.Docs[i] })
		w.Reqs = append(w.Reqs, req)
	}
}

// genRaw builds raw-large: per schema, one streamed valid document per
// configured size. Sizes are fixed (not seeded) so every seed carries the
// same bytes; the seed shapes the content.
func (w *workload) genRaw(rng *rand.Rand, sz sizing) error {
	for _, size := range sz.RawBytes {
		for si, s := range w.Schemas {
			var buf bytes.Buffer
			buf.Grow(int(size) + 64<<10)
			n, err := gen.StreamValid(&buf, rng, s.DTD, s.Def.Root, gen.DocOptions{MaxDepth: 8, MaxRepeat: 3}, size)
			if err != nil {
				return err
			}
			if n < size {
				return fmt.Errorf("raw-large: %s streamed only %d of %d bytes", s.Def.Name, n, size)
			}
			w.Reqs = append(w.Reqs, request{Schema: si, Docs: []int{len(w.Docs)}})
			w.Docs = append(w.Docs, document{
				ID:      fmt.Sprintf("%s-%d", s.Def.Name, len(w.Docs)),
				Schema:  si,
				Content: buf.Bytes(),
			})
		}
	}
	return nil
}

// encode fills the request's body and byte count.
func (w *workload) encode(req *request) error {
	s := w.Schemas[req.Schema]
	req.Bytes = 0
	for _, di := range req.Docs {
		req.Bytes += int64(len(w.Docs[di].Content))
	}
	if w.Route == routeRaw {
		req.Body = w.Docs[req.Docs[0]].Content
		return nil
	}
	body := batchBody{Schema: s.Def.Source, Root: s.Def.Root}
	for _, di := range req.Docs {
		d := &w.Docs[di]
		body.Documents = append(body.Documents, bodyDoc{ID: d.ID, Content: string(d.Content)})
	}
	b, err := json.Marshal(body)
	req.Body = b
	return err
}

// setupBody is the cold-start request for schema si: a small valid
// document in the workload's envelope. raw-large compiles through POST
// /check.
func (w *workload) setupBody(rng *rand.Rand, si int) ([]byte, error) {
	s := w.Schemas[si]
	content := gen.GenValid(rng, s.DTD, s.Def.Root, gen.DocOptions{MaxDepth: 4, MaxRepeat: 1}).String()
	if w.Route == routeBatch {
		return json.Marshal(batchBody{Schema: s.Def.Source, Root: s.Def.Root,
			Documents: []bodyDoc{{ID: "setup-" + s.Def.Name, Content: content}}})
	}
	return json.Marshal(struct {
		Schema   string `json:"schema"`
		Root     string `json:"root"`
		Document string `json:"document"`
	}{s.Def.Source, s.Def.Root, content})
}

// setupPath is the route the cold-start requests go to.
func (w *workload) setupPath() string {
	if w.Route == routeBatch {
		return "/batch"
	}
	return "/check"
}

// chunks splits one pass into the slices measured one at a time, short
// enough that a burst of stolen CPU time spoils only a few, and long
// enough — about 30ms, several of /proc/stat's 10ms ticks on each CPU —
// that the steal counted over one can tell a clean window from a stolen
// one: one multi-MB request of raw-large, six batches of ingest-mixed.
// With two connections a chunk boundary is a barrier — the connection
// that finishes first waits for the other — which six batches, two of
// each schema, keep to a small share.
func (w *workload) chunks() [][]int {
	size := 6
	if w.Route == routeRaw {
		size = 1
	}
	var out [][]int
	for lo := 0; lo < len(w.Reqs); lo += size {
		var c []int
		for i := lo; i < min(lo+size, len(w.Reqs)); i++ {
			c = append(c, i)
		}
		out = append(out, c)
	}
	return out
}

// docsOf returns the documents a request carries.
func (w *workload) docsOf(req *request) []*document {
	out := make([]*document, len(req.Docs))
	for i, di := range req.Docs {
		out[i] = &w.Docs[di]
	}
	return out
}

// passBytes is the document input one pass carries.
func (w *workload) passBytes() int64 {
	var n int64
	for i := range w.Reqs {
		n += w.Reqs[i].Bytes
	}
	return n
}

// refOf computes a schema's registry reference the way pvserve does: by
// compiling it into an in-process registry. /check/raw selects its schema
// by this reference.
func refOf(def schemaDef) (string, error) {
	s, err := engine.NewRegistry(1).Compile(engine.DTDSource, def.Source, def.Root, engine.CompileOptions{})
	if err != nil {
		return "", err
	}
	return s.Ref, nil
}
