package xmltext

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzLexBytes asserts that on arbitrary input the zero-copy byte lexer
// and the reference string lexer (reflexer_test.go) agree exactly: same
// token stream (kinds, names, data, attributes, positions) on acceptance,
// same error text on rejection. Every checker and parser rides on the
// byte lexer, so this pins it to an independent rendering of the grammar.
func FuzzLexBytes(f *testing.F) {
	for _, seed := range differentialInputs {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := Tokenize(src)
		got, gotErr := TokenizeBytes([]byte(src))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch on %q\n  string: %v\n  bytes:  %v", src, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text mismatch on %q\n  string: %v\n  bytes:  %v", src, wantErr, gotErr)
			}
			return
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("token mismatch on %q\n  string: %#v\n  bytes:  %#v", src, want, got)
		}
	})
}

// FuzzChunkedLexer asserts that on arbitrary input the sliding-window
// streaming lexer agrees exactly with the whole-buffer byte lexer at every
// window size — same token stream with global positions on acceptance, same
// error text on rejection. Tiny windows make every marker, char-ref and
// multi-byte rune straddle refill boundaries; this equivalence is what lets
// RunReader and /check/raw claim whole-buffer semantics on unbounded input.
func FuzzChunkedLexer(f *testing.F) {
	for _, seed := range differentialInputs {
		f.Add(seed)
	}
	for _, seed := range straddleInputs() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := TokenizeBytes([]byte(src))
		for _, size := range []int{3, 7, 64, 4096} {
			got, gotErr := tokenizeChunked(strings.NewReader(src), size)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("buf=%d: error mismatch on %q\n  whole:   %v\n  chunked: %v", size, src, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("buf=%d: error text mismatch on %q\n  whole:   %v\n  chunked: %v", size, src, wantErr, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("buf=%d: token mismatch on %q\n  whole:   %#v\n  chunked: %#v", size, src, want, got)
			}
		}
	})
}
