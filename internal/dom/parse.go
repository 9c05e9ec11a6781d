package dom

import (
	"fmt"

	"repro/internal/xmltext"
)

// Document is a parsed XML document: a root element plus any comments and
// processing instructions found outside it.
type Document struct {
	Root *Node
	// Prolog holds comment/PI nodes appearing before the root element.
	Prolog []*Node
	// Epilog holds comment/PI nodes appearing after the root element.
	Epilog []*Node
}

// treeBuilder assembles a Document from a token stream, one token at a
// time, enforcing well-formedness: properly nested matching tags, a single
// root element, and nothing but whitespace, comments and PIs outside the
// root. Feeding tokens incrementally (rather than materializing a token
// slice first) is what lets ParseBytes ride the zero-copy lexer.
type treeBuilder struct {
	doc   Document
	stack []*Node
}

func (b *treeBuilder) push(n *Node) error {
	if len(b.stack) > 0 {
		b.stack[len(b.stack)-1].Append(n)
		return nil
	}
	switch n.Kind {
	case ElementNode:
		if b.doc.Root != nil {
			return fmt.Errorf("xml: multiple root elements (<%s> after <%s>)", n.Name, b.doc.Root.Name)
		}
		b.doc.Root = n
	case TextNode:
		if !isWhitespace(n.Data) {
			return fmt.Errorf("xml: character data outside the root element: %.20q", n.Data)
		}
		// whitespace between top-level constructs is dropped
	default:
		if b.doc.Root == nil {
			b.doc.Prolog = append(b.doc.Prolog, n)
		} else {
			b.doc.Epilog = append(b.doc.Epilog, n)
		}
	}
	return nil
}

// add consumes one token. The token is transient (the lexer reuses it and
// its slices may alias the input); the builder materializes as strings only
// what the tree retains, so end tags are matched without a copy.
func (b *treeBuilder) add(tok *xmltext.ByteToken) error {
	switch tok.Kind {
	case xmltext.StartTag:
		st := tok.Token()
		n := &Node{Kind: ElementNode, Name: st.Name, Attrs: st.Attrs}
		if err := b.push(n); err != nil {
			return err
		}
		b.stack = append(b.stack, n)
	case xmltext.EndTag:
		if len(b.stack) == 0 {
			return fmt.Errorf("xml: %s: unexpected end tag </%s>", tok.Pos, tok.Name)
		}
		top := b.stack[len(b.stack)-1]
		if top.Name != string(tok.Name) {
			return fmt.Errorf("xml: %s: end tag </%s> does not match open <%s>", tok.Pos, tok.Name, top.Name)
		}
		b.stack = b.stack[:len(b.stack)-1]
	case xmltext.Text:
		if len(tok.Data) == 0 {
			return nil
		}
		return b.push(&Node{Kind: TextNode, Data: string(tok.Data)})
	case xmltext.Comment:
		return b.push(&Node{Kind: CommentNode, Data: string(tok.Data)})
	case xmltext.ProcInst:
		return b.push(&Node{Kind: ProcInstNode, Name: string(tok.Name), Data: string(tok.Data)})
	case xmltext.Doctype:
		// A DOCTYPE declaration in the instance is tolerated and ignored;
		// the DTD is supplied separately in this system.
	}
	return nil
}

// finish validates the end state and returns the document.
func (b *treeBuilder) finish() (*Document, error) {
	if len(b.stack) > 0 {
		return nil, fmt.Errorf("xml: unclosed element <%s>", b.stack[len(b.stack)-1].Name)
	}
	if b.doc.Root == nil {
		return nil, fmt.Errorf("xml: no root element")
	}
	// Merge adjacent text nodes produced by entity/CDATA boundaries so that
	// the tree matches the paper's model, where consecutive character data
	// is a single text node (and δ_T maps it to a single σ).
	mergeText(b.doc.Root)
	return &b.doc, nil
}

// Parse is ParseBytes for a string, converted once.
func Parse(src string) (*Document, error) { return ParseBytes([]byte(src)) }

// ParseBytes parses an XML byte slice into a document tree. Tokens come
// from the zero-copy lexer; only the names, data and attributes the tree
// actually retains are materialized as strings, so the resulting document
// does not pin the input buffer.
func ParseBytes(src []byte) (*Document, error) {
	var b treeBuilder
	lx := xmltext.NewByteLexer(src)
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return b.finish()
		}
		if err := b.add(tok); err != nil {
			return nil, err
		}
	}
}

// MustParse is Parse that panics on error; intended for tests and fixtures.
func MustParse(src string) *Document {
	d, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return d
}

// ParseRoot parses src and returns just the root element.
func ParseRoot(src string) (*Node, error) {
	d, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return d.Root, nil
}

func mergeText(n *Node) {
	out := n.Children[:0]
	for _, c := range n.Children {
		if c.Kind == TextNode && len(out) > 0 && out[len(out)-1].Kind == TextNode {
			out[len(out)-1].Data += c.Data
			continue
		}
		out = append(out, c)
		if c.Kind == ElementNode {
			mergeText(c)
		}
	}
	n.Children = out
}

func isWhitespace(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// String serializes the document: prolog nodes, root, epilog nodes.
func (d *Document) String() string {
	return string(d.AppendXML(nil))
}

// AppendXML serializes the document (prolog, root, epilog) appended to
// buf — the pooled-buffer twin of String, byte-identical output.
func (d *Document) AppendXML(buf []byte) []byte {
	for _, n := range d.Prolog {
		buf = n.AppendXML(buf)
	}
	buf = d.Root.AppendXML(buf)
	for _, n := range d.Epilog {
		buf = n.AppendXML(buf)
	}
	return buf
}
