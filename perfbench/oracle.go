package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/receipt"
	"repro/internal/validator"
)

// The oracle is independent of the server's verdict path: validity comes
// from the full validator on the DOM, potential validity from the paper's
// recognizer on the DOM with the content-model DFA fast path compiled out.
// A completion is accepted when it validates and is an extension of the
// draft (Definition 3): removing the elements its diff reports as inserted
// gives back the draft exactly, every element and all character data in
// order.

// verdict is a document's reference outcome.
type verdict struct {
	Malformed bool
	PV        bool
	Valid     bool
}

// receiptVerdict is the verdict string a check receipt commits to.
func (v verdict) receiptVerdict() string {
	switch {
	case v.Malformed:
		return engine.VerdictMalformed
	case v.Valid:
		return engine.VerdictValid
	case v.PV:
		return engine.VerdictPotentiallyValid
	}
	return engine.VerdictNotPotentiallyValid
}

// schemaInfo is one corpus schema compiled for the oracle, plus the
// registry reference pvserve gives it.
type schemaInfo struct {
	Def   schemaDef
	DTD   *dtd.DTD
	Valid *validator.Validator
	Slow  *core.Schema // recognizer only: DisableFastPath
	Ref   string
}

func newSchemaInfo(def schemaDef) (*schemaInfo, error) {
	d, err := dtd.Parse(def.Source)
	if err != nil {
		return nil, fmt.Errorf("schema %s: %w", def.Name, err)
	}
	v, err := validator.New(d, def.Root)
	if err != nil {
		return nil, fmt.Errorf("schema %s: %w", def.Name, err)
	}
	slow, err := core.Compile(d, def.Root, core.Options{DisableFastPath: true})
	if err != nil {
		return nil, fmt.Errorf("schema %s: %w", def.Name, err)
	}
	ref, err := refOf(def)
	if err != nil {
		return nil, fmt.Errorf("schema %s: %w", def.Name, err)
	}
	return &schemaInfo{Def: def, DTD: d, Valid: v, Slow: slow, Ref: ref}, nil
}

// oracle computes the reference verdict of one document.
func (s *schemaInfo) oracle(content []byte) (verdict, error) {
	doc, err := dom.ParseBytes(content)
	if err != nil {
		return verdict{Malformed: true}, nil
	}
	v := verdict{
		PV:    s.Slow.CheckDocument(doc.Root) == nil,
		Valid: s.Valid.Validate(doc.Root) == nil,
	}
	if v.Valid && !v.PV {
		return v, fmt.Errorf("oracle disagrees with itself: valid but not potentially valid")
	}
	return v, nil
}

// resultJSON is the wire form of one check verdict (/batch results,
// /check/raw, async job NDJSON lines).
type resultJSON struct {
	ID               string `json:"id"`
	Index            int    `json:"index"`
	PotentiallyValid bool   `json:"potentiallyValid"`
	Valid            bool   `json:"valid"`
	Detail           string `json:"detail"`
	Error            string `json:"error"`
}

// completeJSON is the wire form of one /complete result.
type completeJSON struct {
	ID           string          `json:"id"`
	Index        int             `json:"index"`
	Completed    bool            `json:"completed"`
	AlreadyValid bool            `json:"alreadyValid"`
	Inserted     int             `json:"inserted"`
	Insertions   []insertionJSON `json:"insertions"`
	Output       string          `json:"output"`
	Detail       string          `json:"detail"`
	Error        string          `json:"error"`
}

// insertionJSON is one diff record of a completion: the inserted
// element's name, its parent's path in the completed document and its
// child slot there.
type insertionJSON struct {
	Path  string `json:"path"`
	Index int    `json:"index"`
	Name  string `json:"name"`
}

// checkVerdictDoc reports whether one check result matches the reference.
// raw is the /check/raw route, which answers potential validity only.
func checkVerdictDoc(got *resultJSON, d *document, index int, raw bool) error {
	if got.ID != d.ID || (!raw && got.Index != index) {
		return fmt.Errorf("%s: result id/index %q/%d, want %q/%d", d.ID, got.ID, got.Index, d.ID, index)
	}
	if (got.Error != "") != d.Want.Malformed {
		return fmt.Errorf("%s: error %q, want malformed=%v", d.ID, got.Error, d.Want.Malformed)
	}
	wantValid := d.Want.Valid && !raw
	if got.PotentiallyValid != d.Want.PV || got.Valid != wantValid {
		return fmt.Errorf("%s: pv=%v valid=%v, want pv=%v valid=%v",
			d.ID, got.PotentiallyValid, got.Valid, d.Want.PV, wantValid)
	}
	if !d.Want.PV && !d.Want.Malformed && got.Detail == "" {
		return fmt.Errorf("%s: not potentially valid, but no violation detail", d.ID)
	}
	return nil
}

// checkBatch checks a /batch (or async job) result list against the
// documents sent and returns the number of wrong documents and the first
// error.
func checkBatch(docs []*document, results []resultJSON) (int, error) {
	if len(results) != len(docs) {
		return len(docs), fmt.Errorf("%d results for %d documents", len(results), len(docs))
	}
	bad := 0
	var first error
	for i, d := range docs {
		if err := checkVerdictDoc(&results[i], d, i, false); err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}

// checkCompletion checks one /complete result against the oracle. A
// potentially valid draft must come back completed (already-valid exactly
// when the oracle says valid), with an output that validates and extends
// the input, every inserted element counted and named by a diff record.
func checkCompletion(s *schemaInfo, d *document, got *completeJSON) error {
	if got.ID != d.ID || got.Error != "" {
		return fmt.Errorf("%s: id %q error %q", d.ID, got.ID, got.Error)
	}
	if !d.Want.PV {
		if got.Completed || got.Detail == "" {
			return fmt.Errorf("%s: completed a draft that is not potentially valid", d.ID)
		}
		return nil
	}
	if !got.Completed || got.AlreadyValid != d.Want.Valid {
		return fmt.Errorf("%s: completed=%v alreadyValid=%v, want completed alreadyValid=%v",
			d.ID, got.Completed, got.AlreadyValid, d.Want.Valid)
	}
	out, err := dom.Parse(got.Output)
	if err != nil {
		return fmt.Errorf("%s: output does not parse: %v", d.ID, err)
	}
	if err := s.Valid.Validate(out.Root); err != nil {
		return fmt.Errorf("%s: output is not valid: %v", d.ID, err)
	}
	in, err := dom.ParseBytes(d.Content)
	if err != nil {
		return fmt.Errorf("%s: input does not parse: %v", d.ID, err)
	}
	if len(got.Insertions) != got.Inserted {
		return fmt.Errorf("%s: inserted=%d with %d diff records", d.ID, got.Inserted, len(got.Insertions))
	}
	if err := unwrapInsertions(out.Root, got.Insertions); err != nil {
		return fmt.Errorf("%s: %v", d.ID, err)
	}
	if out.Root.String() != in.Root.String() {
		return fmt.Errorf("%s: removing the reported insertions does not give back the input: not an extension", d.ID)
	}
	return nil
}

// unwrapInsertions removes the elements the diff records name from the
// completed tree, keeping their content in place. Whatever the records
// claim, the result must equal the input for the output to be an
// extension of it — so the records serve only as the witness of which
// elements are new.
func unwrapInsertions(root *dom.Node, ins []insertionJSON) error {
	nodes := make([]*dom.Node, len(ins))
	for i, r := range ins {
		parent, err := resolvePath(root, r.Path)
		if err != nil {
			return err
		}
		if r.Index < 0 || r.Index >= len(parent.Children) ||
			parent.Children[r.Index].Kind != dom.ElementNode || parent.Children[r.Index].Name != r.Name {
			return fmt.Errorf("diff record %s[%d] <%s> names no such element", r.Path, r.Index, r.Name)
		}
		nodes[i] = parent.Children[r.Index]
	}
	for _, n := range nodes {
		n.Unwrap()
	}
	return nil
}

// resolvePath finds the element a diff path names: "/play" is a root named play,
// then one name[i] segment per level, i counting same-name element
// siblings. The root itself is never an insertion, so "/" is rejected.
func resolvePath(root *dom.Node, path string) (*dom.Node, error) {
	segs := strings.Split(strings.TrimPrefix(path, "/"), "/")
	if path == "/" || segs[0] != root.Name {
		return nil, fmt.Errorf("diff path %q does not start at the root <%s>", path, root.Name)
	}
	n := root
	for _, seg := range segs[1:] {
		name, idx, ok := strings.Cut(strings.TrimSuffix(seg, "]"), "[")
		k, err := strconv.Atoi(idx)
		if !ok || err != nil {
			return nil, fmt.Errorf("diff path %q: bad segment %q", path, seg)
		}
		var next *dom.Node
		for _, c := range n.Children {
			if c.Kind == dom.ElementNode && c.Name == name {
				if k == 0 {
					next = c
					break
				}
				k--
			}
		}
		if next == nil {
			return nil, fmt.Errorf("diff path %q: no %s", path, seg)
		}
		n = next
	}
	return n, nil
}

// parseNDJSON decodes an async job's NDJSON result lines.
func parseNDJSON(body []byte) ([]resultJSON, error) {
	var out []resultJSON
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r resultJSON
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("result line: %w", err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// checkReceipt verifies a job receipt against the oracle: it must commit
// to exactly the request's documents, and every proof must verify for the
// leaf built from the reference verdict — so a receipt over a wrong
// verdict fails here even if it is internally consistent.
func checkReceipt(w *workload, docs []*document, rec *engine.Receipt) error {
	if rec.Count != len(docs) || len(rec.Proofs) != len(docs) {
		return fmt.Errorf("receipt commits %d documents with %d proofs, want %d", rec.Count, len(rec.Proofs), len(docs))
	}
	for i, d := range docs {
		leaf := receipt.Leaf{
			DocID:         d.ID,
			SchemaRef:     w.Schemas[d.Schema].Ref,
			Verdict:       d.Want.receiptVerdict(),
			ContentDigest: receipt.DigestContent(d.Content),
		}
		if p := rec.Proofs[i]; p.Index != i || !receipt.Verify(rec.Root, leaf, p.Proof) {
			return fmt.Errorf("receipt proof %d does not verify for %s as %q", i, d.ID, leaf.Verdict)
		}
	}
	return nil
}

// firstLine trims a response body for an error message.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
