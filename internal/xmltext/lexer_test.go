package xmltext

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// smallWindow is the ChunkedLexer window the expectations below also run
// through: 7 bytes makes nearly every token straddle a refill boundary.
const smallWindow = 7

// lex tokenizes src with the production byte lexer and, through a
// smallWindow-byte window, with ChunkedLexer; it fails the test when the
// two disagree on tokens, positions or error text, and returns the
// whole-buffer result.
func lex(t *testing.T, src string) ([]Token, error) {
	t.Helper()
	want, wantErr := TokenizeBytes([]byte(src))
	got, gotErr := tokenizeChunked(strings.NewReader(src), smallWindow)
	compareChunked(t, src, want, wantErr, got, gotErr)
	return want, wantErr
}

func kinds(tokens []Token) []TokenKind {
	out := make([]TokenKind, len(tokens))
	for i, t := range tokens {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeExample1(t *testing.T) {
	// The w string of Example 1.
	src := `<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>`
	tokens, err := lex(t, src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		StartTag, StartTag, StartTag, Text, EndTag, // <r><a><b>A quick brown</b>
		StartTag, EndTag, // <e></e>
		StartTag, Text, EndTag, // <c>...</c>
		Text, EndTag, EndTag, // dog</a></r>
	}
	if !reflect.DeepEqual(kinds(tokens), want) {
		t.Errorf("kinds = %v, want %v", kinds(tokens), want)
	}
	if tokens[3].Data != "A quick brown" {
		t.Errorf("text = %q", tokens[3].Data)
	}
	if tokens[0].Name != "r" || tokens[12].Name != "r" {
		t.Errorf("root tags wrong: %q %q", tokens[0].Name, tokens[12].Name)
	}
}

func TestSelfClosingTag(t *testing.T) {
	tokens, err := lex(t, `<a><e/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{StartTag, StartTag, EndTag, EndTag}
	if !reflect.DeepEqual(kinds(tokens), want) {
		t.Fatalf("kinds = %v, want %v", kinds(tokens), want)
	}
	if !tokens[1].SelfClose {
		t.Error("SelfClose flag not set")
	}
	if tokens[2].Name != "e" {
		t.Errorf("synthetic end tag name = %q", tokens[2].Name)
	}
}

func TestAttributes(t *testing.T) {
	tokens, err := lex(t, `<a id="x1" lang='en' title="a &lt;b&gt; &amp; c"></a>`)
	if err != nil {
		t.Fatal(err)
	}
	attrs := tokens[0].Attrs
	want := []Attr{{"id", "x1"}, {"lang", "en"}, {"title", "a <b> & c"}}
	if !reflect.DeepEqual(attrs, want) {
		t.Errorf("attrs = %v, want %v", attrs, want)
	}
}

func TestDuplicateAttributeRejected(t *testing.T) {
	if _, err := lex(t, `<a id="1" id="2"/>`); err == nil {
		t.Error("expected duplicate-attribute error")
	}
}

func TestEntitiesAndCharRefs(t *testing.T) {
	tokens, err := lex(t, `<a>&lt;tag&gt; &amp; &#65;&#x42;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if tokens[1].Data != "<tag> & AB" {
		t.Errorf("text = %q", tokens[1].Data)
	}
}

func TestUnknownEntityRejected(t *testing.T) {
	if _, err := lex(t, `<a>&nope;</a>`); err == nil {
		t.Error("expected unknown-entity error")
	}
}

func TestCDATAAndComments(t *testing.T) {
	tokens, err := lex(t, `<a><![CDATA[raw <b> & stuff]]><!-- note --><?pi data?></a>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{StartTag, Text, Comment, ProcInst, EndTag}
	if !reflect.DeepEqual(kinds(tokens), want) {
		t.Fatalf("kinds = %v, want %v", kinds(tokens), want)
	}
	if tokens[1].Data != "raw <b> & stuff" {
		t.Errorf("CDATA = %q", tokens[1].Data)
	}
	if tokens[2].Data != " note " {
		t.Errorf("comment = %q", tokens[2].Data)
	}
	if tokens[3].Name != "pi" || tokens[3].Data != "data" {
		t.Errorf("PI = %q %q", tokens[3].Name, tokens[3].Data)
	}
}

func TestDoctypeSkipped(t *testing.T) {
	tokens, err := lex(t, `<!DOCTYPE r SYSTEM "r.dtd" [ <!ELEMENT r ANY> ]><r></r>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{Doctype, StartTag, EndTag}
	if !reflect.DeepEqual(kinds(tokens), want) {
		t.Fatalf("kinds = %v, want %v", kinds(tokens), want)
	}
}

func TestPositions(t *testing.T) {
	tokens, err := lex(t, "<a>\n<b></b></a>")
	if err != nil {
		t.Fatal(err)
	}
	b := tokens[2]
	if b.Name != "b" || b.Pos.Line != 2 || b.Pos.Col != 1 {
		t.Errorf("position of <b> = %+v", b.Pos)
	}
	if b.Pos.Offset != 4 {
		t.Errorf("offset of <b> = %d, want 4", b.Pos.Offset)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		"<a",                // unterminated start tag
		"<a><!-- never",     // unterminated comment
		"<a><![CDATA[ oops", // unterminated CDATA
		"<a x=1></a>",       // unquoted attribute
		"<a x></a>",         // attribute without value
		"</ >",              // bad end tag
		"<a>&unterminated",  // entity without semicolon
	}
	for _, src := range cases {
		_, err := lex(t, src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("lex(%q): want a *SyntaxError, got %v", src, err)
		}
	}
}

func TestEscapeHelpers(t *testing.T) {
	if got := EscapeText(`a < b & c > d`); got != "a &lt; b &amp; c &gt; d" {
		t.Errorf("EscapeText = %q", got)
	}
	if got := EscapeAttr(`say "hi" & <go>`); got != `say &quot;hi&quot; &amp; &lt;go>` {
		t.Errorf("EscapeAttr = %q", got)
	}
}

func TestUnicodeNames(t *testing.T) {
	tokens, err := lex(t, `<été>ça</été>`)
	if err != nil {
		t.Fatal(err)
	}
	if tokens[0].Name != "été" {
		t.Errorf("name = %q", tokens[0].Name)
	}
}
