package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dfa"
	"repro/internal/xmltext"
)

// ViolationError is a potential-validity violation reported by the stream
// checker: the input is well-formed XML so far, but its content cannot be
// extended to a valid document. Lexical and well-formedness problems
// (mismatched or unclosed tags, multiple roots, character data outside the
// root) are reported as plain errors instead, mirroring the tree path where
// dom.Parse rejects them before CheckDocument ever runs. Callers that need
// to tell the two apart (the concurrent engine, differential tests) use
// IsViolation.
type ViolationError struct{ Reason string }

// Error implements the error interface with the violation's reason.
func (e *ViolationError) Error() string { return e.Reason }

// IsViolation reports whether err is a potential-validity violation, as
// opposed to a lexical or well-formedness error.
func IsViolation(err error) bool {
	var v *ViolationError
	return errors.As(err, &v)
}

// frame is one open element of the stream checker. An element starts on
// its content model's DFA lane (mach + state) and buffers its child
// symbols in the checker's shared prefix arena; the first symbol the DFA
// cannot take lazily spawns the PV recognizer (rec), which replays the
// buffered prefix and takes over for the rest of that element's content.
// Ancestors keep their own lanes either way.
type frame struct {
	rec         *Recognizer  // nil while the element is on its DFA lane
	mach        *dfa.Machine // nil once fallen back (or never fast-pathed)
	name        string
	id          int32 // interned symbol ID of the element
	state       int32 // current DFA state while on the fast lane
	prefixStart int32 // start of this frame's slice of the prefix arena
	lastWasText bool  // collapses adjacent text events into one σ per δ_T
}

// StreamChecker checks whole-document potential validity in one pass over a
// token stream — the incremental formulation the paper recommends ("we can
// solve the potential validity problem incrementally, for each document
// node, by considering only node's children", Section 4). It is equivalent
// to CheckDocument and is what the editor layer and the large-document
// benchmarks use.
//
// Checking is two-tier: per open element the compiled content-model DFA
// (internal/dfa) settles each child symbol with one table load and zero
// allocations; the paper's ECRecognizer (Figure 5) — the machinery that
// can hypothesize inserted elements — runs only from the first symbol the
// DFA cannot take. A DFA-viable prefix is always completable, so the
// switch can never change a verdict, only defer the expensive sweep to
// the residue that needs it. The per-element buffered prefix holds
// interned symbol IDs only, adding O(children on the open path) memory to
// the checker's O(depth) frame stack.
type StreamChecker struct {
	schema *Schema
	frames []frame
	depth  int
	err    error
	seen   bool // a root element has been seen and closed
	// strict tracks whether every closed element so far was settled
	// entirely on its DFA lane in an accepting state (and nothing
	// checker-invisible could make the full validator disagree): when it
	// survives to Close, the document is strictly valid and the engine
	// skips the tree pass.
	strict bool
	// prefix is the shared arena of buffered child-symbol IDs for frames
	// still on their DFA lane; each frame owns prefix[f.prefixStart:] up
	// to the next frame's start, and EndElement truncates its slice.
	prefix []int32
	// fastHits / fastFallbacks count elements fully settled on the DFA
	// lane vs elements that fell back to a recognizer, since Reset.
	fastHits      int64
	fastFallbacks int64
	// forceFallbackAt >= 0 abandons a frame's DFA lane as soon as that
	// frame has buffered this many symbols — a test/bench knob that
	// exercises the replay path; -1 (the default) disables it.
	forceFallbackAt int
	// free recycles per-element recognizers (with their arenas and visited
	// scratch) popped by EndElement, so a pooled checker's steady state
	// creates no recognizer state at all for repeated element kinds.
	free []*Recognizer
	// clx is the reader-path chunked lexer, created on first RunReader and
	// reused (with its sliding window) across documents by pooled checkers.
	clx *xmltext.ChunkedLexer
}

// NewStreamChecker returns a fresh streaming checker.
func (s *Schema) NewStreamChecker() *StreamChecker {
	return &StreamChecker{schema: s, forceFallbackAt: -1}
}

// Err returns the first violation encountered, or nil.
func (c *StreamChecker) Err() error { return c.err }

// Depth returns the current open-element depth.
func (c *StreamChecker) Depth() int { return c.depth }

// Reset returns the checker to its initial state for a fresh document,
// retaining allocated stack capacity — the hook that lets worker pools
// (engine.CheckBatch) reuse checkers across many documents.
func (c *StreamChecker) Reset() {
	// Clear through capacity, not length: EndElement pops truncate without
	// clearing, so after a completed document the Recognizers (and name
	// strings, which alias the schema) linger beyond len.
	clear(c.frames[:cap(c.frames)])
	c.frames = c.frames[:0]
	c.prefix = c.prefix[:0]
	c.depth = 0
	c.err = nil
	c.seen = false
	c.strict = c.schema.fast != nil
	c.fastHits = 0
	c.fastFallbacks = 0
}

// ForceFallbackAfter makes every element abandon its DFA lane once it has
// buffered n child symbols (n=0: before the first symbol), exercising the
// recognizer replay path regardless of what the DFA would accept. A
// negative n restores normal two-tier dispatch. Verdicts are identical in
// every mode — the differential fuzz target pins this.
func (c *StreamChecker) ForceFallbackAfter(n int) { c.forceFallbackAt = n }

// FastPathStats returns the number of elements fully settled on the DFA
// fast path and the number that fell back to a PV recognizer since the
// last Reset.
func (c *StreamChecker) FastPathStats() (hits, fallbacks int64) {
	return c.fastHits, c.fastFallbacks
}

// StrictlyValid reports whether the last run proved the document fully
// (strictly) valid on the DFA fast path alone: every element closed in an
// accepting DFA state and nothing checker-invisible could change the full
// validator's mind. Meaningful only after a run ended with no error;
// false never means invalid — just "not proven", so the caller must fall
// back to the tree pass for the full-validity bit.
func (c *StreamChecker) StrictlyValid() bool { return c.err == nil && c.seen && c.strict }

// fail records a well-formedness failure.
func (c *StreamChecker) fail(format string, args ...any) error {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	return c.err
}

// violate records a potential-validity violation.
func (c *StreamChecker) violate(format string, args ...any) error {
	if c.err == nil {
		c.err = &ViolationError{Reason: fmt.Sprintf(format, args...)}
	}
	return c.err
}

// StartElement processes a start tag. The name is resolved through the
// schema's interned-name table without materializing a string (undeclared
// names only surface inside the violation message), and it is never
// retained, so it may alias a reused lexer buffer.
func (c *StreamChecker) StartElement(name []byte) error {
	if c.err != nil {
		return c.err
	}
	if len(c.frames) == 0 {
		if c.seen {
			return c.fail("second root element <%s>", name)
		}
		if !c.schema.opts.AllowAnyRoot && string(name) != c.schema.Root {
			return c.violate("root element is <%s>, schema requires <%s>", name, c.schema.Root)
		}
	}
	in, declared := c.schema.interned[string(name)]
	if !declared {
		return c.violate("element <%s> is not declared in the DTD", name)
	}
	// Use the schema's own copy of the name from here on: the lexed name
	// aliases the document, and anything the checker retains (open-element
	// names, recognizer elements — including freelisted recognizers that
	// outlive Reset) must not pin the document buffer.
	if len(c.frames) > 0 {
		if !c.feedTop(in.id) {
			return c.violate("content of <%s> is not potentially valid at <%s>", c.frames[len(c.frames)-1].name, in.name)
		}
		c.frames[len(c.frames)-1].lastWasText = false
	} else if in.name != c.schema.Root {
		c.strict = false // the full validator pins the root to the schema root
	}
	f := frame{name: in.name, id: in.id, prefixStart: int32(len(c.prefix))}
	if mach := c.schema.fastMachine(in.id); mach != nil {
		f.mach = mach
	} else {
		f.rec = c.newRecognizer(in.name)
		c.strict = false
	}
	c.frames = append(c.frames, f)
	c.depth++
	return nil
}

// maxBufferedChildren caps how many child symbols one frame may buffer on
// its DFA lane. An element exceeding the cap falls back to its recognizer
// (O(1) state per element), so the checker's extra memory is a constant
// per open element and the reader path keeps its O(depth + window) bound
// even over pathologically flat documents.
const maxBufferedChildren = 1024

// feedTop advances the innermost open element by one child symbol. While
// the frame is on its DFA lane this is one table load; the first symbol
// the DFA cannot take (or the forced-fallback knob, or the buffering cap)
// switches the frame to a PV recognizer via fallback. Returns whether the
// symbol keeps the element's content potentially valid.
func (c *StreamChecker) feedTop(sym int32) bool {
	f := &c.frames[len(c.frames)-1]
	if f.rec == nil {
		buffered := int32(len(c.prefix)) - f.prefixStart
		forced := c.forceFallbackAt >= 0 && buffered >= int32(c.forceFallbackAt)
		if !forced && buffered < maxBufferedChildren {
			if next := f.mach.Step(f.state, sym); next != dfa.Dead {
				f.state = next
				c.prefix = append(c.prefix, sym)
				return true
			}
		}
		c.fallback(f)
	}
	return f.rec.Validate(c.schema.symbolOf(sym))
}

// fallback abandons f's DFA lane: it spawns the element's recognizer and
// replays the buffered child-symbol prefix into it. A DFA-viable prefix
// is a viable prefix of the exact content language, hence completable,
// hence potentially valid — so the replay cannot reject; the differential
// fuzz target (FuzzDFAVsRecognizer) pins that invariant.
func (c *StreamChecker) fallback(f *frame) {
	rec := c.newRecognizer(f.name)
	for _, id := range c.prefix[f.prefixStart:] {
		rec.Validate(c.schema.symbolOf(id))
	}
	c.prefix = c.prefix[:f.prefixStart]
	f.rec = rec
	f.mach = nil
	c.fastFallbacks++
	c.strict = false
}

// newRecognizer takes a recognizer from the checker's freelist, falling
// back to a fresh one.
func (c *StreamChecker) newRecognizer(name string) *Recognizer {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		r.reinit(c.schema, name, c.schema.depth)
		return r
	}
	return c.schema.NewRecognizer(name)
}

// Text processes a character-data event. Empty and (optionally) whitespace
// text is invisible; adjacent text events collapse into one σ. The data is
// only inspected, never retained or converted.
func (c *StreamChecker) Text(data []byte) error {
	if c.err != nil {
		return c.err
	}
	if len(data) == 0 || (c.schema.opts.IgnoreWhitespaceText && isSpace(data)) {
		// Invisible to the checker — but not to the full validator, which
		// rejects an EMPTY element containing any text node at all, so
		// the strict-validity shortcut stands down and lets the tree pass
		// decide.
		if len(c.frames) > 0 && c.schema.isEmpty[c.frames[len(c.frames)-1].id] {
			c.strict = false
		}
		return nil
	}
	if len(c.frames) == 0 {
		if isSpace(data) {
			return nil
		}
		return c.fail("character data outside the root element")
	}
	f := &c.frames[len(c.frames)-1]
	if f.lastWasText {
		return nil // same σ as the previous text event
	}
	if !c.feedTop(0) {
		return c.violate("content of <%s> is not potentially valid at character data", f.name)
	}
	f.lastWasText = true
	return nil
}

// EndElement processes an end tag; the open-tag comparison is an
// allocation-free string/byte equality check.
func (c *StreamChecker) EndElement(name []byte) error {
	if c.err != nil {
		return c.err
	}
	if len(c.frames) == 0 {
		return c.fail("unexpected end tag </%s>", name)
	}
	i := len(c.frames) - 1
	f := &c.frames[i]
	if f.name != string(name) {
		return c.fail("end tag </%s> does not match open <%s>", name, f.name)
	}
	// Closing never violates potential validity: PV allows completing the
	// content with hypothesized elements after the close. On the DFA lane
	// the accepting bit decides the cheaper question — whether the content
	// as written is a complete word of the model (strict validity).
	if f.rec == nil {
		c.fastHits++
		if !f.mach.Accepting(f.state) {
			c.strict = false
		}
		c.prefix = c.prefix[:f.prefixStart]
	} else {
		c.free = append(c.free, f.rec)
	}
	c.frames = c.frames[:i]
	c.depth--
	if len(c.frames) == 0 {
		c.seen = true
	}
	return nil
}

// Close verifies that the document ended properly (all elements closed,
// exactly one root seen) and returns the final verdict.
func (c *StreamChecker) Close() error {
	if c.err != nil {
		return c.err
	}
	if len(c.frames) > 0 {
		return c.fail("unclosed element <%s>", c.frames[len(c.frames)-1].name)
	}
	if !c.seen {
		return c.fail("no root element")
	}
	return nil
}

// CheckStream is CheckStreamBytes for a string, converted once.
func (s *Schema) CheckStream(src string) error { return s.CheckStreamBytes([]byte(src)) }

// CheckStreamBytes lexes src and runs the streaming check over it — a
// single-pass Problem PV solver. Token names and data are subslices of
// src, and element names resolve through the interned-name table.
func (s *Schema) CheckStreamBytes(src []byte) error { return s.NewStreamChecker().RunBytes(src) }

// Run is RunBytes for a string, converted once.
func (c *StreamChecker) Run(src string) error { return c.RunBytes([]byte(src)) }

// RunBytes resets the checker and drives it over src in one pass. It
// returns nil when the document is potentially valid, a *ViolationError
// when it is well-formed but not potentially valid, and a plain error for
// lexical or well-formedness problems. The lexer state lives on the
// checker's stack frame and tokens are consumed in place, so a potentially
// valid entity-free document is checked with no per-token allocation.
func (c *StreamChecker) RunBytes(src []byte) error {
	c.Reset()
	lx := xmltext.NewByteLexer(src)
	for {
		tok, err := lx.Next()
		if err != nil {
			return err
		}
		if tok == nil {
			return c.Close()
		}
		if err := c.feed(tok); err != nil {
			return err
		}
	}
}

// feed dispatches one token to its event handler; tokens the checker does
// not see (comments, PIs, DOCTYPE) pass through.
func (c *StreamChecker) feed(tok *xmltext.ByteToken) error {
	switch tok.Kind {
	case xmltext.StartTag:
		return c.StartElement(tok.Name)
	case xmltext.EndTag:
		return c.EndElement(tok.Name)
	case xmltext.Text:
		return c.Text(tok.Data)
	}
	return nil
}

// RunReader is Run over an io.Reader: the document is lexed through a
// sliding window (xmltext.ChunkedLexer) and never held in memory, so peak
// usage is O(element depth + buffered child symbols on the open path +
// window), independent of document size — the external-memory streaming
// formulation. Verdicts and error messages are identical to RunBytes over
// the same bytes. The reader-path verdict is potential validity only;
// full validity additionally needs the tree pass.
func (c *StreamChecker) RunReader(r io.Reader) error {
	return c.RunReaderBuffer(r, 0)
}

// RunReaderBuffer is RunReader with an explicit window size in bytes
// (xmltext.DefaultChunkSize if bufSize <= 0). The window is retained on the
// checker across runs; a run asking for a larger window than the retained
// one re-allocates it once.
func (c *StreamChecker) RunReaderBuffer(r io.Reader, bufSize int) error {
	c.Reset()
	if c.clx == nil || (bufSize > 0 && c.clx.BufSize() < bufSize) {
		c.clx = xmltext.NewChunkedLexer(r, bufSize)
	} else {
		c.clx.Reset(r)
	}
	for {
		tok, err := c.clx.Next()
		if err != nil {
			return err
		}
		if tok == nil {
			return c.Close()
		}
		if err := c.feed(tok); err != nil {
			return err
		}
	}
}

// CheckReader is CheckStream over an io.Reader: one bounded-memory pass,
// O(element depth + window) peak usage regardless of document size.
func (s *Schema) CheckReader(r io.Reader) error { return s.NewStreamChecker().RunReader(r) }

// isSpace reports whether the text is entirely XML whitespace.
func isSpace(s []byte) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}
