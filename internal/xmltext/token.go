// Package xmltext tokenizes document-centric XML held as bytes. It is a
// deliberately small, self-contained lexer (the standard library's
// encoding/xml has no DTD machinery and normalizes away details we need,
// such as exact text segmentation and byte offsets for editor operations).
//
// The lexer recognizes start tags with attributes, end tags, self-closing
// tags, character data, CDATA sections, comments, processing instructions,
// a DOCTYPE declaration, and the five predefined entity references. It
// reports positions as byte offsets plus line/column, which the editor
// layer uses to address update operations.
//
// There is one lexer, ByteLexer, over a whole []byte; ChunkedLexer runs the
// same code over a sliding window of an io.Reader. String inputs are
// converted to bytes once, at the API edge of the packages above.
package xmltext

import (
	"fmt"
	"strings"
)

// TokenKind identifies the kind of a lexical token.
type TokenKind int

const (
	// StartTag is <name attr="v" ...> (or the open half of <name/>).
	StartTag TokenKind = iota
	// EndTag is </name>. Self-closing tags emit StartTag (SelfClose=true)
	// followed by a synthetic EndTag at the same position.
	EndTag
	// Text is character data (entity references resolved, CDATA unwrapped).
	Text
	// Comment is <!-- ... --> with the delimiters stripped.
	Comment
	// ProcInst is <?target data?> with the delimiters stripped.
	ProcInst
	// Doctype is a <!DOCTYPE ...> declaration, raw contents.
	Doctype
)

// String names the token kind.
func (k TokenKind) String() string {
	switch k {
	case StartTag:
		return "StartTag"
	case EndTag:
		return "EndTag"
	case Text:
		return "Text"
	case Comment:
		return "Comment"
	case ProcInst:
		return "ProcInst"
	case Doctype:
		return "Doctype"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Attr is one attribute of a start tag.
type Attr struct {
	Name  string
	Value string
}

// Pos is a position in the source string.
type Pos struct {
	Offset int // byte offset
	Line   int // 1-based
	Col    int // 1-based, in bytes
}

// String renders the position in the "line L, col C" form used by
// SyntaxError messages.
func (p Pos) String() string { return fmt.Sprintf("line %d, col %d", p.Line, p.Col) }

// Token is a single lexical token.
type Token struct {
	Kind      TokenKind
	Name      string // element name for StartTag/EndTag, target for ProcInst
	Data      string // text content, comment body, PI data
	Attrs     []Attr // attributes for StartTag
	SelfClose bool   // true for <name/>; a synthetic EndTag follows
	Pos       Pos    // start position of the token
	End       int    // byte offset one past the token
}

// SyntaxError is a lexical error with position information.
type SyntaxError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface: "xml: line L, col C: msg".
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: %s: %s", e.Pos, e.Msg)
}

// EscapeText escapes character data for serialization.
func EscapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// EscapeAttr escapes an attribute value for serialization in double quotes.
func EscapeAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
	return r.Replace(s)
}
