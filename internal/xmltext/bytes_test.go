package xmltext

import (
	"reflect"
	"strings"
	"testing"
)

// differentialInputs is a corpus spanning every token kind, both entity
// paths, error cases and position-sensitive shapes.
var differentialInputs = []string{
	``,
	`<a></a>`,
	`<a/>`,
	`<a x="1" y='2'/>`,
	`<a>text</a>`,
	`<a>one<b>two</b>three</a>`,
	`<a>&lt;tag&gt; &amp; &#65;&#x42;</a>`,
	`<a x="&quot;q&quot;" y="a&amp;b"></a>`,
	`<a><![CDATA[<raw>&amp;]]></a>`,
	`<a><!-- a comment --><?pi target data?></a>`,
	`<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]><r>t</r>`,
	"<a>\nline two\n  <b>indented</b>\n</a>",
	`<ns:elem ns:attr="v"/>`,
	`<a-b.c_d>x</a-b.c_d>`,
	`<a x="same" x="dup"/>`,
	`<a>&unknown;</a>`,
	`<a>&#xZZ;</a>`,
	`<a>&#;</a>`,
	`<a>&noend</a>`,
	`<a`,
	`<a x`,
	`<a x=`,
	`<a x=">`,
	`<a x="<"/>`,
	`</a>`,
	`</a `,
	`<a><b></a>`,
	`<1bad/>`,
	`<a><!-- unterminated`,
	`<a><![CDATA[ unterminated`,
	`<?pi unterminated`,
	`<!DOCTYPE unterminated`,
	`<a>x</a>trailing&`,
	`<a>&#1114112;</a>`,   // beyond MaxRune
	`<a>&#x10FFFF;</a>`,   // exactly MaxRune
	`<élem attr="café"/>`, // multi-byte names and values
	`<a>mixed &#x263A; text</a>`,
}

// TestByteLexerMatchesStringLexer pins the zero-copy lexer to the
// reference string lexer: identical token streams (kinds, names, data,
// attributes, positions) and identical errors on every corpus input.
func TestByteLexerMatchesStringLexer(t *testing.T) {
	for _, src := range differentialInputs {
		want, wantErr := Tokenize(src)
		got, gotErr := TokenizeBytes([]byte(src))
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%q: error mismatch\n  string: %v\n  bytes:  %v", src, wantErr, gotErr)
			continue
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Errorf("%q: error text mismatch\n  string: %v\n  bytes:  %v", src, wantErr, gotErr)
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q: token mismatch\n  string: %#v\n  bytes:  %#v", src, want, got)
		}
	}
}

// TestByteTokensAreSubslices verifies the zero-copy contract: on input free
// of entity references, token names, data and attribute values alias the
// source buffer rather than copies of it.
func TestByteTokensAreSubslices(t *testing.T) {
	src := []byte(`<doc id="d1"><title>plain text</title><empty/></doc>`)
	aliases := func(b []byte) bool {
		if len(b) == 0 {
			return true
		}
		for i := range src {
			if &src[i] == &b[0] {
				return true
			}
		}
		return false
	}
	lx := NewByteLexer(src)
	for {
		tok, err := lx.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok == nil {
			return
		}
		if !aliases(tok.Name) {
			t.Errorf("token %v name %q does not alias the input", tok.Kind, tok.Name)
		}
		if !aliases(tok.Data) {
			t.Errorf("token %v data %q does not alias the input", tok.Kind, tok.Data)
		}
		for _, a := range tok.Attrs {
			if !aliases(a.Name) || !aliases(a.Value) {
				t.Errorf("attr %q=%q does not alias the input", a.Name, a.Value)
			}
		}
	}
}

// TestByteLexerSteadyStateAllocs verifies the byte path's reason to exist:
// after warm-up, lexing an entity-free document performs zero allocations.
func TestByteLexerSteadyStateAllocs(t *testing.T) {
	src := []byte(strings.Repeat(`<a x="1"><b>some text</b><c/></a>`, 50))
	src = append(append([]byte(`<root>`), src...), `</root>`...)
	lx := NewByteLexer(nil)
	run := func() {
		lx.Reset(src)
		for {
			tok, err := lx.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok == nil {
				return
			}
		}
	}
	run() // warm up attrs buffer
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Errorf("byte lexer allocates %.1f times per entity-free document, want 0", avg)
	}
}

// TestByteLexerScratchReuse ensures entity-bearing values are correct even
// though they share the lexer's scratch buffer within one token.
func TestByteLexerScratchReuse(t *testing.T) {
	toks, err := TokenizeBytes([]byte(`<a x="1&amp;2" y="3&lt;4" z="&#65;&#66;">&gt;text&lt;</a>`))
	if err != nil {
		t.Fatal(err)
	}
	start := toks[0]
	want := []Attr{{"x", "1&2"}, {"y", "3<4"}, {"z", "AB"}}
	if !reflect.DeepEqual(start.Attrs, want) {
		t.Errorf("attrs = %v, want %v", start.Attrs, want)
	}
	if toks[1].Data != ">text<" {
		t.Errorf("text = %q, want %q", toks[1].Data, ">text<")
	}
}

func BenchmarkLexBytes(b *testing.B) {
	src := []byte(benchDoc())
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	lx := NewByteLexer(nil)
	for i := 0; i < b.N; i++ {
		lx.Reset(src)
		for {
			tok, err := lx.Next()
			if err != nil {
				b.Fatal(err)
			}
			if tok == nil {
				break
			}
		}
	}
}

func benchDoc() string {
	var sb strings.Builder
	sb.WriteString(`<doc version="1" kind="bench">`)
	for i := 0; i < 200; i++ {
		sb.WriteString(`<item id="x"><name>some element name</name><desc>a longer run of character data to lex</desc><tag/></item>`)
	}
	sb.WriteString(`</doc>`)
	return sb.String()
}
