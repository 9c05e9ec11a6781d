// Zero-copy byte-path lexer. ByteLexer emits tokens whose Name/Data/Attrs
// are subslices of the input (or of an internal scratch buffer when entity
// references force resolution), so the steady-state token loop performs no
// per-token allocation. ByteToken.Token and TokenizeBytes are the thin
// string shims over this path; FuzzLexBytes and
// TestByteLexerMatchesStringLexer pin it to an independent reference lexer
// kept in the tests.
package xmltext

import (
	"bytes"
	"fmt"
	"unicode"
	"unicode/utf8"
)

// ByteAttr is one attribute of a start tag. Name always subslices the
// input; Value subslices the input when the raw value contains no entity
// references, and the lexer's scratch buffer otherwise.
type ByteAttr struct {
	Name  []byte
	Value []byte
}

// ByteToken is the zero-copy counterpart of Token. Its byte slices (and the
// token itself, which the lexer reuses) are valid only until the next call
// to Next; callers that need to retain a token materialize it with Token.
type ByteToken struct {
	Kind      TokenKind
	Name      []byte // element name for StartTag/EndTag, target for ProcInst
	Data      []byte // text content, comment body, PI data
	Attrs     []ByteAttr
	SelfClose bool
	Pos       Pos
	End       int
}

// Token materializes the byte token as an owning string Token — the
// compatibility shim for callers on the string API.
func (t *ByteToken) Token() Token {
	out := Token{
		Kind:      t.Kind,
		Name:      string(t.Name),
		Data:      string(t.Data),
		SelfClose: t.SelfClose,
		Pos:       t.Pos,
		End:       t.End,
	}
	if len(t.Attrs) > 0 {
		out.Attrs = make([]Attr, len(t.Attrs))
		for i, a := range t.Attrs {
			out.Attrs[i] = Attr{Name: string(a.Name), Value: string(a.Value)}
		}
	}
	return out
}

// ByteLexer tokenizes an XML byte slice without copying it. The input must
// not be mutated while the lexer is in use.
type ByteLexer struct {
	src       []byte
	pos       int
	line, col int
	tok       ByteToken // reused; returned by Next
	attrs     []ByteAttr
	scratch   []byte // entity-resolved text and attribute values
	pendTok   ByteToken
	havePend  bool // a synthetic EndTag follows a self-closing StartTag
	streaming bool // src is a window, not the whole document; see errNeedMore
}

// errNeedMore is returned (in streaming mode only) when the window ends in
// the middle of a token: the condition that reads as a syntax error on a
// whole document may resolve once more bytes arrive. ChunkedLexer reacts by
// refilling the window and re-lexing from the last consumed position; the
// sentinel never escapes to ChunkedLexer callers. Sites that can hit the end
// of input funnel through (*ByteLexer).more so the streaming and
// whole-buffer paths stay in lockstep.
var errNeedMore = fmt.Errorf("xmltext: need more input")

// more converts an at-end-of-input condition into either the retryable
// refill sentinel (streaming mode) or the definitive syntax error
// (whole-buffer mode, or streaming mode after the final refill).
func (l *ByteLexer) more(pos Pos, format string, args ...any) error {
	if l.streaming {
		return errNeedMore
	}
	return l.errf(pos, format, args...)
}

// NewByteLexer returns a lexer over src.
func NewByteLexer(src []byte) *ByteLexer {
	return &ByteLexer{src: src, line: 1, col: 1}
}

// Reset rewinds the lexer onto a new input, retaining its internal buffers
// — the hook that lets checker pools lex many documents without
// re-allocating lexer state.
func (l *ByteLexer) Reset(src []byte) {
	l.src = src
	l.pos = 0
	l.line, l.col = 1, 1
	l.havePend = false
}

// TokenizeBytes lexes the entire slice through the zero-copy path and
// materializes owning string tokens.
func TokenizeBytes(src []byte) ([]Token, error) {
	lx := NewByteLexer(src)
	var out []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return out, nil
		}
		out = append(out, tok.Token())
	}
}

func (l *ByteLexer) position() Pos { return Pos{Offset: l.pos, Line: l.line, Col: l.col} }

func (l *ByteLexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *ByteLexer) errf(pos Pos, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

var (
	bComment = []byte("<!--")
	bCDATA   = []byte("<![CDATA[")
	bDoctype = []byte("<!DOCTYPE")
	bPI      = []byte("<?")
	bEndOpen = []byte("</")
	bSelfEnd = []byte("/>")
)

// Next returns the next token, or (nil, nil) at end of input. The returned
// token is owned by the lexer and overwritten by the following call.
func (l *ByteLexer) Next() (*ByteToken, error) {
	if l.havePend {
		l.havePend = false
		l.tok = l.pendTok
		return &l.tok, nil
	}
	if l.pos >= len(l.src) {
		return nil, nil
	}
	l.scratch = l.scratch[:0]
	start := l.position()
	if l.src[l.pos] != '<' {
		return l.lexText(start)
	}
	rest := l.src[l.pos:]
	if l.streaming && len(rest) < len(bCDATA) {
		// The window may end inside a markup marker ("<!", "<![CD", …): the
		// dispatch below would mis-lex the fragment as a start tag. Refill
		// before deciding. rest always begins with '<', so a prefix match
		// here is a genuine split marker, never plain text.
		for _, m := range [][]byte{bComment, bCDATA, bDoctype, bPI, bEndOpen} {
			if len(rest) < len(m) && bytes.HasPrefix(m, rest) {
				return nil, errNeedMore
			}
		}
	}
	switch {
	case bytes.HasPrefix(rest, bComment):
		return l.lexComment(start)
	case bytes.HasPrefix(rest, bCDATA):
		return l.lexCDATA(start)
	case bytes.HasPrefix(rest, bDoctype):
		return l.lexDoctype(start)
	case bytes.HasPrefix(rest, bPI):
		return l.lexPI(start)
	case bytes.HasPrefix(rest, bEndOpen):
		return l.lexEndTag(start)
	default:
		return l.lexStartTag(start)
	}
}

func (l *ByteLexer) lexText(start Pos) (*ByteToken, error) {
	from := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != '<' && l.src[l.pos] != '&' {
		l.advance(1)
	}
	if l.pos >= len(l.src) || l.src[l.pos] == '<' {
		if l.streaming && l.pos >= len(l.src) {
			return nil, errNeedMore // the text run may continue past the window
		}
		// Fast path: no entity references, the text is a pure subslice.
		l.tok = ByteToken{Kind: Text, Data: l.src[from:l.pos], Pos: start, End: l.pos}
		return &l.tok, nil
	}
	l.scratch = append(l.scratch, l.src[from:l.pos]...)
	for l.pos < len(l.src) && l.src[l.pos] != '<' {
		if l.src[l.pos] == '&' {
			if err := l.appendEntity(); err != nil {
				return nil, err
			}
			continue
		}
		l.scratch = append(l.scratch, l.src[l.pos])
		l.advance(1)
	}
	if l.streaming && l.pos >= len(l.src) {
		return nil, errNeedMore
	}
	l.tok = ByteToken{Kind: Text, Data: l.scratch, Pos: start, End: l.pos}
	return &l.tok, nil
}

// appendEntity resolves one entity reference at the cursor into scratch.
func (l *ByteLexer) appendEntity() error {
	start := l.position()
	semi := bytes.IndexByte(l.src[l.pos:], ';')
	if semi < 0 || semi > 12 {
		// Streaming: the ';' may sit just past the window, but only while
		// fewer than 13 bytes ('&' plus the longest legal reference body)
		// have been scanned; beyond that the reference is unterminated no
		// matter what follows.
		if l.streaming && semi < 0 && len(l.src)-l.pos <= 12 {
			return errNeedMore
		}
		return l.errf(start, "unterminated entity reference")
	}
	name := l.src[l.pos+1 : l.pos+semi]
	l.advance(semi + 1)
	if len(name) >= 2 && name[0] == '#' && (name[1] == 'x' || name[1] == 'X') {
		r, ok := charRefValue(name[2:], 16)
		if !ok {
			return l.errf(start, "bad character reference &%s;", name)
		}
		l.scratch = utf8.AppendRune(l.scratch, r)
		return nil
	}
	if len(name) >= 1 && name[0] == '#' {
		r, ok := charRefValue(name[1:], 10)
		if !ok {
			return l.errf(start, "bad character reference &%s;", name)
		}
		l.scratch = utf8.AppendRune(l.scratch, r)
		return nil
	}
	switch string(name) { // compiles to comparisons; no conversion allocation
	case "lt":
		l.scratch = append(l.scratch, '<')
	case "gt":
		l.scratch = append(l.scratch, '>')
	case "amp":
		l.scratch = append(l.scratch, '&')
	case "apos":
		l.scratch = append(l.scratch, '\'')
	case "quot":
		l.scratch = append(l.scratch, '"')
	default:
		return l.errf(start, "unknown entity &%s;", name)
	}
	return nil
}

func (l *ByteLexer) lexComment(start Pos) (*ByteToken, error) {
	l.advance(4) // <!--
	end := bytes.Index(l.src[l.pos:], []byte("-->"))
	if end < 0 {
		return nil, l.more(start, "unterminated comment")
	}
	data := l.src[l.pos : l.pos+end]
	l.advance(end + 3)
	l.tok = ByteToken{Kind: Comment, Data: data, Pos: start, End: l.pos}
	return &l.tok, nil
}

func (l *ByteLexer) lexCDATA(start Pos) (*ByteToken, error) {
	l.advance(9) // <![CDATA[
	end := bytes.Index(l.src[l.pos:], []byte("]]>"))
	if end < 0 {
		return nil, l.more(start, "unterminated CDATA section")
	}
	data := l.src[l.pos : l.pos+end]
	l.advance(end + 3)
	l.tok = ByteToken{Kind: Text, Data: data, Pos: start, End: l.pos}
	return &l.tok, nil
}

func (l *ByteLexer) lexDoctype(start Pos) (*ByteToken, error) {
	l.advance(len("<!DOCTYPE"))
	depth := 0
	from := l.pos
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '"', '\'':
			q := l.src[l.pos]
			l.advance(1)
			for l.pos < len(l.src) && l.src[l.pos] != q {
				l.advance(1)
			}
		case '>':
			if depth == 0 {
				data := l.src[from:l.pos]
				l.advance(1)
				l.tok = ByteToken{Kind: Doctype, Data: bytes.TrimSpace(data), Pos: start, End: l.pos}
				return &l.tok, nil
			}
		}
		l.advance(1)
	}
	return nil, l.more(start, "unterminated DOCTYPE declaration")
}

func (l *ByteLexer) lexPI(start Pos) (*ByteToken, error) {
	l.advance(2) // <?
	end := bytes.Index(l.src[l.pos:], []byte("?>"))
	if end < 0 {
		return nil, l.more(start, "unterminated processing instruction")
	}
	body := l.src[l.pos : l.pos+end]
	l.advance(end + 2)
	name := body
	var data []byte
	if i := bytes.IndexAny(body, " \t\r\n"); i >= 0 {
		name, data = body[:i], bytes.TrimSpace(body[i:])
	}
	l.tok = ByteToken{Kind: ProcInst, Name: name, Data: data, Pos: start, End: l.pos}
	return &l.tok, nil
}

func (l *ByteLexer) lexEndTag(start Pos) (*ByteToken, error) {
	l.advance(2) // </
	name, err := l.lexName()
	if err != nil {
		return nil, err
	}
	l.skipSpace()
	if l.pos >= len(l.src) {
		return nil, l.more(start, "malformed end tag </%s", name)
	}
	if l.src[l.pos] != '>' {
		return nil, l.errf(start, "malformed end tag </%s", name)
	}
	l.advance(1)
	l.tok = ByteToken{Kind: EndTag, Name: name, Pos: start, End: l.pos}
	return &l.tok, nil
}

func (l *ByteLexer) lexStartTag(start Pos) (*ByteToken, error) {
	l.advance(1) // <
	name, err := l.lexName()
	if err != nil {
		return nil, err
	}
	l.attrs = l.attrs[:0]
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return nil, l.more(start, "unterminated start tag <%s", name)
		}
		switch l.src[l.pos] {
		case '>':
			l.advance(1)
			l.tok = ByteToken{Kind: StartTag, Name: name, Attrs: l.attrs, Pos: start, End: l.pos}
			return &l.tok, nil
		case '/':
			if !bytes.HasPrefix(l.src[l.pos:], bSelfEnd) {
				if l.streaming && l.pos+1 >= len(l.src) {
					return nil, errNeedMore // "/" may be the start of "/>"
				}
				return nil, l.errf(l.position(), "expected '/>' in tag <%s", name)
			}
			l.advance(2)
			l.pendTok = ByteToken{Kind: EndTag, Name: name, Pos: l.position(), End: l.pos}
			l.havePend = true
			l.tok = ByteToken{Kind: StartTag, Name: name, Attrs: l.attrs, SelfClose: true, Pos: start, End: l.pos}
			return &l.tok, nil
		default:
			attr, err := l.lexAttr()
			if err != nil {
				return nil, err
			}
			// Linear scan instead of a per-tag set: tags have few attributes
			// and this keeps the hot path allocation-free.
			for _, a := range l.attrs {
				if bytes.Equal(a.Name, attr.Name) {
					return nil, l.errf(start, "duplicate attribute %q in tag <%s", attr.Name, name)
				}
			}
			l.attrs = append(l.attrs, attr)
		}
	}
}

func (l *ByteLexer) lexAttr() (ByteAttr, error) {
	name, err := l.lexName()
	if err != nil {
		return ByteAttr{}, err
	}
	l.skipSpace()
	if l.pos >= len(l.src) {
		return ByteAttr{}, l.more(l.position(), "attribute %q missing '='", name)
	}
	if l.src[l.pos] != '=' {
		return ByteAttr{}, l.errf(l.position(), "attribute %q missing '='", name)
	}
	l.advance(1)
	l.skipSpace()
	if l.pos >= len(l.src) {
		return ByteAttr{}, l.more(l.position(), "attribute %q value must be quoted", name)
	}
	if l.src[l.pos] != '"' && l.src[l.pos] != '\'' {
		return ByteAttr{}, l.errf(l.position(), "attribute %q value must be quoted", name)
	}
	q := l.src[l.pos]
	l.advance(1)
	from := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != q && l.src[l.pos] != '&' && l.src[l.pos] != '<' {
		l.advance(1)
	}
	if l.pos < len(l.src) && l.src[l.pos] == q {
		// Fast path: no entities, the value is a pure subslice.
		val := l.src[from:l.pos]
		l.advance(1)
		return ByteAttr{Name: name, Value: val}, nil
	}
	if l.streaming && l.pos >= len(l.src) {
		return ByteAttr{}, errNeedMore
	}
	valStart := len(l.scratch)
	l.scratch = append(l.scratch, l.src[from:l.pos]...)
	for l.pos < len(l.src) && l.src[l.pos] != q {
		if l.src[l.pos] == '&' {
			if err := l.appendEntity(); err != nil {
				return ByteAttr{}, err
			}
			continue
		}
		if l.src[l.pos] == '<' {
			return ByteAttr{}, l.errf(l.position(), "'<' not allowed in attribute value")
		}
		l.scratch = append(l.scratch, l.src[l.pos])
		l.advance(1)
	}
	if l.pos >= len(l.src) {
		return ByteAttr{}, l.more(l.position(), "unterminated attribute value for %q", name)
	}
	l.advance(1)
	return ByteAttr{Name: name, Value: l.scratch[valStart:len(l.scratch):len(l.scratch)]}, nil
}

func (l *ByteLexer) lexName() ([]byte, error) {
	start := l.pos
	r, size := utf8.DecodeRune(l.src[l.pos:])
	if size == 0 || !(r == '_' || r == ':' || unicode.IsLetter(r)) {
		// Streaming: an empty window, or a RuneError from what may be a
		// multi-byte rune truncated by the window edge, can both resolve
		// after a refill. A RuneError with utf8.UTFMax bytes in hand is a
		// genuinely invalid byte and stays an error.
		if l.streaming && (size == 0 || (r == utf8.RuneError && size == 1 && len(l.src)-l.pos < utf8.UTFMax)) {
			return nil, errNeedMore
		}
		if l.streaming && len(l.src)-l.pos < 10 {
			// The error message quotes up to 10 bytes of context; refill so
			// the streamed message matches the whole-buffer one exactly.
			return nil, errNeedMore
		}
		return nil, l.errf(l.position(), "expected a name, found %q", l.src[l.pos:min(l.pos+10, len(l.src))])
	}
	l.advance(size)
	for l.pos < len(l.src) {
		r, size = utf8.DecodeRune(l.src[l.pos:])
		if r == utf8.RuneError && size == 1 && l.streaming && len(l.src)-l.pos < utf8.UTFMax {
			return nil, errNeedMore // possibly a name rune split by the window edge
		}
		if !(r == '_' || r == ':' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)) {
			break
		}
		l.advance(size)
	}
	if l.streaming && l.pos >= len(l.src) {
		return nil, errNeedMore // the name may continue past the window
	}
	return l.src[start:l.pos], nil
}

func (l *ByteLexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\r', '\n':
			l.advance(1)
		default:
			return
		}
	}
}

// charRefValue parses the digits of a numeric character reference in the
// given base (10 or 16). It is strict — no signs, no trailing garbage, no
// values beyond the Unicode code space — and shared with the reference
// lexer in the tests, so the two agree on every input.
func charRefValue[S ~string | ~[]byte](digits S, base int32) (rune, bool) {
	if len(digits) == 0 {
		return 0, false
	}
	var n int32
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		var d int32
		switch {
		case '0' <= c && c <= '9':
			d = int32(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = int32(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = int32(c-'A') + 10
		default:
			return 0, false
		}
		n = n*base + d
		if n > unicode.MaxRune {
			return 0, false
		}
	}
	return rune(n), true
}
