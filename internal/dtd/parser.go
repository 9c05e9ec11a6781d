package dtd

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/contentmodel"
)

// ParseError is a DTD syntax error with position information.
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface: "dtd: line L, col C: msg".
func (e *ParseError) Error() string {
	return fmt.Sprintf("dtd: line %d, col %d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses the textual content of a DTD (internal or external subset
// syntax: a sequence of markup declarations). It returns an error on syntax
// errors and on duplicate element type declarations (an XML validity
// constraint).
func Parse(src string) (*DTD, error) {
	p := &parser{src: src, line: 1, col: 1}
	d := &DTD{Elements: map[string]*ElementDecl{}}
	for {
		p.skipSpaceAndComments()
		if p.eof() {
			return d, nil
		}
		if !p.hasPrefix("<!") && !p.hasPrefix("<?") {
			return nil, p.errf("expected markup declaration, found %q", p.peekContext())
		}
		switch {
		case p.hasPrefix("<!ELEMENT"):
			decl, err := p.parseElementDecl()
			if err != nil {
				return nil, err
			}
			if _, dup := d.Elements[decl.Name]; dup {
				return nil, p.errf("duplicate declaration of element %q", decl.Name)
			}
			d.Elements[decl.Name] = decl
			d.Order = append(d.Order, decl.Name)
		case p.hasPrefix("<!ATTLIST"), p.hasPrefix("<!ENTITY"), p.hasPrefix("<!NOTATION"):
			// Parsed for well-formedness only; contents are irrelevant to
			// potential validity (paper Section 2, footnote 3).
			if err := p.skipDeclaration(); err != nil {
				return nil, err
			}
		case p.hasPrefix("<?"):
			if err := p.skipPI(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unsupported declaration %q", p.peekContext())
		}
	}
}

// MustParse is Parse that panics on error; intended for tests and fixtures.
func MustParse(src string) *DTD {
	d, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return d
}

type parser struct {
	src       string
	pos       int
	line, col int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) peekContext() string {
	end := p.pos + 20
	if end > len(p.src) {
		end = len(p.src)
	}
	return p.src[p.pos:end]
}

func (p *parser) advance(n int) {
	for i := 0; i < n && p.pos < len(p.src); i++ {
		if p.src[p.pos] == '\n' {
			p.line++
			p.col = 1
		} else {
			p.col++
		}
		p.pos++
	}
}

func (p *parser) hasPrefix(s string) bool { return strings.HasPrefix(p.src[p.pos:], s) }

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\n', '\r':
			p.advance(1)
		default:
			return
		}
	}
}

func (p *parser) skipSpaceAndComments() {
	for {
		p.skipSpace()
		if p.hasPrefix("<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				p.advance(len(p.src) - p.pos)
				return
			}
			p.advance(4 + end + 3)
			continue
		}
		return
	}
}

// skipDeclaration consumes a markup declaration whose details we ignore,
// honoring quoted literals (which may contain '>').
func (p *parser) skipDeclaration() error {
	start := p.pos
	for !p.eof() {
		switch p.peek() {
		case '"', '\'':
			q := p.peek()
			p.advance(1)
			for !p.eof() && p.peek() != q {
				p.advance(1)
			}
			if p.eof() {
				return p.errf("unterminated literal in declaration starting at offset %d", start)
			}
			p.advance(1)
		case '>':
			p.advance(1)
			return nil
		default:
			p.advance(1)
		}
	}
	return p.errf("unterminated declaration starting at offset %d", start)
}

func (p *parser) skipPI() error {
	end := strings.Index(p.src[p.pos:], "?>")
	if end < 0 {
		return p.errf("unterminated processing instruction")
	}
	p.advance(end + 2)
	return nil
}

func isNameStart(r rune) bool {
	return r == '_' || r == ':' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return isNameStart(r) || r == '-' || r == '.' || unicode.IsDigit(r)
}

func (p *parser) parseName() (string, error) {
	r, size := utf8.DecodeRuneInString(p.src[p.pos:])
	if size == 0 || !isNameStart(r) {
		return "", p.errf("expected a name, found %q", p.peekContext())
	}
	start := p.pos
	p.advance(size)
	for !p.eof() {
		r, size = utf8.DecodeRuneInString(p.src[p.pos:])
		if !isNameChar(r) {
			break
		}
		p.advance(size)
	}
	return p.src[start:p.pos], nil
}

func (p *parser) expect(s string) error {
	if !p.hasPrefix(s) {
		return p.errf("expected %q, found %q", s, p.peekContext())
	}
	p.advance(len(s))
	return nil
}

func (p *parser) parseElementDecl() (*ElementDecl, error) {
	if err := p.expect("<!ELEMENT"); err != nil {
		return nil, err
	}
	p.skipSpace()
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	decl := &ElementDecl{Name: name}
	switch {
	case p.hasPrefix("EMPTY"):
		p.advance(len("EMPTY"))
		decl.Category = Empty
	case p.hasPrefix("ANY"):
		p.advance(len("ANY"))
		decl.Category = Any
	case p.hasPrefix("#PCDATA"):
		// Figure 1 of the paper writes <!ELEMENT c #PCDATA> without the
		// parentheses the XML grammar requires; accept the spelling as the
		// equivalent mixed model (#PCDATA).
		p.advance(len("#PCDATA"))
		decl.Category = Mixed
		decl.Model = contentmodel.NewPCDATA()
	case p.peek() == '(':
		model, mixed, err := p.parseContentSpec()
		if err != nil {
			return nil, err
		}
		decl.Model = model
		if mixed {
			decl.Category = Mixed
		} else {
			decl.Category = Children
		}
	default:
		return nil, p.errf("expected EMPTY, ANY or a content model, found %q", p.peekContext())
	}
	p.skipSpace()
	if err := p.expect(">"); err != nil {
		return nil, err
	}
	return decl, nil
}

// parseContentSpec parses either Mixed or children content, starting at '('.
func (p *parser) parseContentSpec() (*contentmodel.Expr, bool, error) {
	// Look ahead for mixed content: '(' S? '#PCDATA' ...
	save := *p
	if err := p.expect("("); err != nil {
		return nil, false, err
	}
	p.skipSpace()
	if p.hasPrefix("#PCDATA") {
		expr, err := p.parseMixedTail()
		return expr, true, err
	}
	*p = save
	expr, err := p.parseCP()
	return expr, false, err
}

// parseMixedTail parses the remainder of a mixed content model after
// "(" S? and positioned at "#PCDATA". Forms:
//
//	(#PCDATA)            -> PCDATA
//	(#PCDATA)*           -> (PCDATA)*  (semantically identical)
//	(#PCDATA | a | b)*   -> Star(Choice(PCDATA, a, b))
func (p *parser) parseMixedTail() (*contentmodel.Expr, error) {
	if err := p.expect("#PCDATA"); err != nil {
		return nil, err
	}
	children := []*contentmodel.Expr{contentmodel.NewPCDATA()}
	for {
		p.skipSpace()
		if p.peek() == '|' {
			p.advance(1)
			p.skipSpace()
			name, err := p.parseName()
			if err != nil {
				return nil, err
			}
			children = append(children, contentmodel.NewName(name))
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	hasStar := false
	if p.peek() == '*' {
		p.advance(1)
		hasStar = true
	}
	if len(children) > 1 && !hasStar {
		return nil, p.errf("mixed content with elements must end in )*")
	}
	if len(children) == 1 {
		if hasStar {
			return contentmodel.NewStar(children[0]), nil
		}
		return children[0], nil
	}
	return contentmodel.NewStar(contentmodel.NewChoice(children...)), nil
}

// parseCP parses a content particle: (name | choice | seq) ('?'|'*'|'+')?
func (p *parser) parseCP() (*contentmodel.Expr, error) {
	var expr *contentmodel.Expr
	p.skipSpace()
	if p.peek() == '(' {
		inner, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		expr = inner
	} else {
		name, err := p.parseName()
		if err != nil {
			return nil, err
		}
		expr = contentmodel.NewName(name)
	}
	switch p.peek() {
	case '?':
		p.advance(1)
		expr = contentmodel.NewOpt(expr)
	case '*':
		p.advance(1)
		expr = contentmodel.NewStar(expr)
	case '+':
		p.advance(1)
		expr = contentmodel.NewPlus(expr)
	}
	return expr, nil
}

// parseGroup parses '(' cp ((',' cp)* | ('|' cp)*) ')' — a seq or choice.
func (p *parser) parseGroup() (*contentmodel.Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	first, err := p.parseCP()
	if err != nil {
		return nil, err
	}
	children := []*contentmodel.Expr{first}
	sep := byte(0)
	for {
		p.skipSpace()
		c := p.peek()
		if c == ')' {
			p.advance(1)
			break
		}
		if c != ',' && c != '|' {
			return nil, p.errf("expected ',', '|' or ')' in content model, found %q", p.peekContext())
		}
		if sep == 0 {
			sep = c
		} else if sep != c {
			return nil, p.errf("cannot mix ',' and '|' at the same level of a content model")
		}
		p.advance(1)
		next, err := p.parseCP()
		if err != nil {
			return nil, err
		}
		children = append(children, next)
	}
	if len(children) == 1 {
		return children[0], nil
	}
	if sep == '|' {
		return contentmodel.NewChoice(children...), nil
	}
	return contentmodel.NewSeq(children...), nil
}
