package xmltext

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The string lexer below is the reference implementation the production
// byte lexer is pinned against: FuzzLexBytes and
// TestByteLexerMatchesStringLexer compare their token streams and error
// texts. It is an independent, straightforward rendering of the same
// grammar (strings.Builder accumulation, a fresh token per call), kept in
// a test file so no production route can reach it.

// Lexer tokenizes an XML string.
type Lexer struct {
	src       string
	pos       int
	line, col int
	// pending holds a synthetic EndTag to emit after a self-closing
	// StartTag.
	pending *Token
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize lexes the entire string.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return out, nil
		}
		out = append(out, *tok)
	}
}

func (l *Lexer) position() Pos { return Pos{Offset: l.pos, Line: l.line, Col: l.col} }

func (l *Lexer) advance(n int) {
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

func (l *Lexer) errf(pos Pos, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Next returns the next token, or (nil, nil) at end of input.
func (l *Lexer) Next() (*Token, error) {
	if l.pending != nil {
		t := l.pending
		l.pending = nil
		return t, nil
	}
	if l.pos >= len(l.src) {
		return nil, nil
	}
	start := l.position()
	if l.src[l.pos] != '<' {
		return l.lexText(start)
	}
	rest := l.src[l.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		return l.lexComment(start)
	case strings.HasPrefix(rest, "<![CDATA["):
		return l.lexCDATA(start)
	case strings.HasPrefix(rest, "<!DOCTYPE"):
		return l.lexDoctype(start)
	case strings.HasPrefix(rest, "<?"):
		return l.lexPI(start)
	case strings.HasPrefix(rest, "</"):
		return l.lexEndTag(start)
	default:
		return l.lexStartTag(start)
	}
}

func (l *Lexer) lexText(start Pos) (*Token, error) {
	var b strings.Builder
	for l.pos < len(l.src) && l.src[l.pos] != '<' {
		if l.src[l.pos] == '&' {
			s, err := l.lexEntity()
			if err != nil {
				return nil, err
			}
			b.WriteString(s)
			continue
		}
		b.WriteByte(l.src[l.pos])
		l.advance(1)
	}
	return &Token{Kind: Text, Data: b.String(), Pos: start, End: l.pos}, nil
}

var entities = map[string]string{
	"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": `"`,
}

func (l *Lexer) lexEntity() (string, error) {
	start := l.position()
	semi := strings.IndexByte(l.src[l.pos:], ';')
	if semi < 0 || semi > 12 {
		return "", l.errf(start, "unterminated entity reference")
	}
	name := l.src[l.pos+1 : l.pos+semi]
	l.advance(semi + 1)
	if strings.HasPrefix(name, "#x") || strings.HasPrefix(name, "#X") {
		r, ok := charRefValue(name[2:], 16)
		if !ok {
			return "", l.errf(start, "bad character reference &%s;", name)
		}
		return string(r), nil
	}
	if strings.HasPrefix(name, "#") {
		r, ok := charRefValue(name[1:], 10)
		if !ok {
			return "", l.errf(start, "bad character reference &%s;", name)
		}
		return string(r), nil
	}
	if s, ok := entities[name]; ok {
		return s, nil
	}
	return "", l.errf(start, "unknown entity &%s;", name)
}

func (l *Lexer) lexComment(start Pos) (*Token, error) {
	l.advance(4) // <!--
	end := strings.Index(l.src[l.pos:], "-->")
	if end < 0 {
		return nil, l.errf(start, "unterminated comment")
	}
	data := l.src[l.pos : l.pos+end]
	l.advance(end + 3)
	return &Token{Kind: Comment, Data: data, Pos: start, End: l.pos}, nil
}

func (l *Lexer) lexCDATA(start Pos) (*Token, error) {
	l.advance(9) // <![CDATA[
	end := strings.Index(l.src[l.pos:], "]]>")
	if end < 0 {
		return nil, l.errf(start, "unterminated CDATA section")
	}
	data := l.src[l.pos : l.pos+end]
	l.advance(end + 3)
	return &Token{Kind: Text, Data: data, Pos: start, End: l.pos}, nil
}

func (l *Lexer) lexDoctype(start Pos) (*Token, error) {
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
				return &Token{Kind: Doctype, Data: strings.TrimSpace(data), Pos: start, End: l.pos}, nil
			}
		}
		l.advance(1)
	}
	return nil, l.errf(start, "unterminated DOCTYPE declaration")
}

func (l *Lexer) lexPI(start Pos) (*Token, error) {
	l.advance(2) // <?
	end := strings.Index(l.src[l.pos:], "?>")
	if end < 0 {
		return nil, l.errf(start, "unterminated processing instruction")
	}
	body := l.src[l.pos : l.pos+end]
	l.advance(end + 2)
	name := body
	data := ""
	if i := strings.IndexAny(body, " \t\r\n"); i >= 0 {
		name, data = body[:i], strings.TrimSpace(body[i:])
	}
	return &Token{Kind: ProcInst, Name: name, Data: data, Pos: start, End: l.pos}, nil
}

func (l *Lexer) lexEndTag(start Pos) (*Token, error) {
	l.advance(2) // </
	name, err := l.lexName()
	if err != nil {
		return nil, err
	}
	l.skipSpace()
	if l.pos >= len(l.src) || l.src[l.pos] != '>' {
		return nil, l.errf(start, "malformed end tag </%s", name)
	}
	l.advance(1)
	return &Token{Kind: EndTag, Name: name, Pos: start, End: l.pos}, nil
}

func (l *Lexer) lexStartTag(start Pos) (*Token, error) {
	l.advance(1) // <
	name, err := l.lexName()
	if err != nil {
		return nil, err
	}
	tok := &Token{Kind: StartTag, Name: name, Pos: start}
	seen := map[string]bool{}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return nil, l.errf(start, "unterminated start tag <%s", name)
		}
		switch l.src[l.pos] {
		case '>':
			l.advance(1)
			tok.End = l.pos
			return tok, nil
		case '/':
			if !strings.HasPrefix(l.src[l.pos:], "/>") {
				return nil, l.errf(l.position(), "expected '/>' in tag <%s", name)
			}
			l.advance(2)
			tok.SelfClose = true
			tok.End = l.pos
			l.pending = &Token{Kind: EndTag, Name: name, Pos: l.position(), End: l.pos}
			return tok, nil
		default:
			attr, err := l.lexAttr()
			if err != nil {
				return nil, err
			}
			if seen[attr.Name] {
				return nil, l.errf(start, "duplicate attribute %q in tag <%s", attr.Name, name)
			}
			seen[attr.Name] = true
			tok.Attrs = append(tok.Attrs, attr)
		}
	}
}

func (l *Lexer) lexAttr() (Attr, error) {
	name, err := l.lexName()
	if err != nil {
		return Attr{}, err
	}
	l.skipSpace()
	if l.pos >= len(l.src) || l.src[l.pos] != '=' {
		return Attr{}, l.errf(l.position(), "attribute %q missing '='", name)
	}
	l.advance(1)
	l.skipSpace()
	if l.pos >= len(l.src) || (l.src[l.pos] != '"' && l.src[l.pos] != '\'') {
		return Attr{}, l.errf(l.position(), "attribute %q value must be quoted", name)
	}
	q := l.src[l.pos]
	l.advance(1)
	var b strings.Builder
	for l.pos < len(l.src) && l.src[l.pos] != q {
		if l.src[l.pos] == '&' {
			s, err := l.lexEntity()
			if err != nil {
				return Attr{}, err
			}
			b.WriteString(s)
			continue
		}
		if l.src[l.pos] == '<' {
			return Attr{}, l.errf(l.position(), "'<' not allowed in attribute value")
		}
		b.WriteByte(l.src[l.pos])
		l.advance(1)
	}
	if l.pos >= len(l.src) {
		return Attr{}, l.errf(l.position(), "unterminated attribute value for %q", name)
	}
	l.advance(1)
	return Attr{Name: name, Value: b.String()}, nil
}

func (l *Lexer) lexName() (string, error) {
	start := l.pos
	r, size := utf8.DecodeRuneInString(l.src[l.pos:])
	if size == 0 || !(r == '_' || r == ':' || unicode.IsLetter(r)) {
		return "", l.errf(l.position(), "expected a name, found %q", l.src[l.pos:min(l.pos+10, len(l.src))])
	}
	l.advance(size)
	for l.pos < len(l.src) {
		r, size = utf8.DecodeRuneInString(l.src[l.pos:])
		if !(r == '_' || r == ':' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)) {
			break
		}
		l.advance(size)
	}
	return l.src[start:l.pos], nil
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\r', '\n':
			l.advance(1)
		default:
			return
		}
	}
}
