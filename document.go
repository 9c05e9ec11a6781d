package pv

import (
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/editor"
)

// Document is a mutable XML document tree. Nodes are addressed by simple
// path expressions (see Node) so that callers of the public API never touch
// internal packages.
type Document struct {
	root *dom.Node
}

// ParseDocument parses an XML string into a document tree, enforcing
// well-formedness.
func ParseDocument(xml string) (*Document, error) {
	doc, err := dom.Parse(xml)
	if err != nil {
		return nil, err
	}
	return &Document{root: doc.Root}, nil
}

// ParseDocumentFile reads and parses an XML file.
func ParseDocumentFile(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := dom.ParseBytes(data)
	if err != nil {
		return nil, err
	}
	return &Document{root: doc.Root}, nil
}

// MustParseDocument is ParseDocument that panics on error.
func MustParseDocument(xml string) *Document {
	d, err := ParseDocument(xml)
	if err != nil {
		panic(err)
	}
	return d
}

// String serializes the document.
func (d *Document) String() string { return d.root.String() }

// Clone returns an independent deep copy.
func (d *Document) Clone() *Document { return &Document{root: d.root.Clone()} }

// Depth returns the element-nesting depth of the document.
func (d *Document) Depth() int { return d.root.Depth() }

// Content returns all character data in document order — the paper's
// content(w).
func (d *Document) Content() string { return d.root.Content() }

// Root returns the root node.
func (d *Document) Root() *Node { return &Node{n: d.root} }

// Node is a handle on a document node.
type Node struct{ n *dom.Node }

// IsElement reports whether the node is an element.
func (x *Node) IsElement() bool { return x.n.Kind == dom.ElementNode }

// IsText reports whether the node is a text node.
func (x *Node) IsText() bool { return x.n.Kind == dom.TextNode }

// Name returns the element name ("" for non-elements).
func (x *Node) Name() string {
	if x.n.Kind != dom.ElementNode {
		return ""
	}
	return x.n.Name
}

// Text returns the node's character data ("" for non-text nodes).
func (x *Node) Text() string {
	if x.n.Kind != dom.TextNode {
		return ""
	}
	return x.n.Data
}

// NumChildren returns the number of child nodes.
func (x *Node) NumChildren() int { return len(x.n.Children) }

// Child returns the i-th child.
func (x *Node) Child(i int) *Node { return &Node{n: x.n.Children[i]} }

// Parent returns the parent node, or nil at the root.
func (x *Node) Parent() *Node {
	if x.n.Parent == nil {
		return nil
	}
	return &Node{n: x.n.Parent}
}

// String serializes the subtree.
func (x *Node) String() string { return x.n.String() }

// Find returns the first element matching a simple slash path of element
// names relative to x, e.g. "act/scene/speech". An empty path returns x.
func (x *Node) Find(path string) *Node {
	cur := x.n
	if path == "" {
		return x
	}
	for _, step := range strings.Split(path, "/") {
		var next *dom.Node
		for _, c := range cur.Children {
			if c.Kind == dom.ElementNode && c.Name == step {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return &Node{n: cur}
}

// Session is a guarded document-centric editing session: every operation is
// pre-checked with the paper's incremental potential-validity guards and
// refused if it would make the document impossible to complete into a valid
// one.
type Session struct {
	sess *editor.Session
	doc  *Document
}

// NewSession starts a guarded session; the document must be potentially
// valid.
func (s *Schema) NewSession(doc *Document) (*Session, error) {
	es, err := editor.NewSession(s.core, doc.root)
	if err != nil {
		return nil, err
	}
	return &Session{sess: es, doc: doc}, nil
}

// Document returns the document being edited.
func (e *Session) Document() *Document { return e.doc }

// InsertMarkup wraps children [i, j) of parent in a new element; the paper's
// markup-insertion, guarded by two ECPV checks.
func (e *Session) InsertMarkup(parent *Node, i, j int, name string) (*Node, error) {
	elem, err := e.sess.InsertMarkup(parent.n, i, j, name)
	if err != nil {
		return nil, err
	}
	return &Node{n: elem}, nil
}

// DeleteMarkup unwraps an element (always PV-preserving, Theorem 2).
func (e *Session) DeleteMarkup(n *Node) error { return e.sess.DeleteMarkup(n.n) }

// InsertText creates a text node at child index i of parent (O(1) guard,
// Proposition 3).
func (e *Session) InsertText(parent *Node, i int, text string) (*Node, error) {
	node, err := e.sess.InsertText(parent.n, i, text)
	if err != nil {
		return nil, err
	}
	return &Node{n: node}, nil
}

// UpdateText replaces a text node's characters (always PV-preserving,
// Theorem 2).
func (e *Session) UpdateText(n *Node, text string) error { return e.sess.UpdateText(n.n, text) }

// DeleteText removes a text node (always PV-preserving, Theorem 2).
func (e *Session) DeleteText(n *Node) error { return e.sess.DeleteText(n.n) }

// Undo reverts the most recent applied operation.
func (e *Session) Undo() bool { return e.sess.Undo() }

// Stats summarizes session activity.
func (e *Session) Stats() (applied, refused int) {
	st := e.sess.Stats()
	return st.Applied, st.Refused
}

// CanInsertMarkup previews the InsertMarkup guard without mutating.
func (e *Session) CanInsertMarkup(parent *Node, i, j int, name string) error {
	return e.schemaOf().CanInsertMarkup(parent.n, i, j, name)
}

func (e *Session) schemaOf() *core.Schema { return e.sess.Schema() }
