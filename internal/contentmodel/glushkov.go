package contentmodel

import (
	"fmt"
	"sort"
)

// PCDATASymbol is the symbol used for character data in automaton input.
// Element symbols are plain element names; they can never collide with this
// value because "#" is not a valid XML name start character.
const PCDATASymbol = "#PCDATA"

// Automaton is a Glushkov (position) automaton for a content-model
// expression. It matches sequences of symbols, where each symbol is an
// element name or PCDATASymbol. Construction is the classical
// first/last/follow computation; matching a sequence of length n over an
// automaton with p positions costs O(n·p) in the worst case.
type Automaton struct {
	symbols  []string       // symbol at each position, 1-based (index 0 unused)
	first    map[int]bool   // positions reachable from the start
	last     map[int]bool   // positions that can end a match
	follow   []map[int]bool // follow sets, 1-based
	nullable bool
}

// CompileAutomaton builds the Glushkov automaton for e. A nil expression
// yields an automaton accepting only the empty sequence (the EMPTY content
// model).
func CompileAutomaton(e *Expr) *Automaton {
	a := &Automaton{
		symbols: []string{""},
		first:   map[int]bool{},
		last:    map[int]bool{},
		follow:  []map[int]bool{nil},
	}
	if e == nil {
		a.nullable = true
		return a
	}
	info := a.build(e)
	a.nullable = info.nullable
	for p := range info.first {
		a.first[p] = true
	}
	for p := range info.last {
		a.last[p] = true
	}
	return a
}

type posInfo struct {
	first    map[int]bool
	last     map[int]bool
	nullable bool
}

func newPosInfo() posInfo {
	return posInfo{first: map[int]bool{}, last: map[int]bool{}}
}

func (a *Automaton) newPosition(sym string) int {
	a.symbols = append(a.symbols, sym)
	a.follow = append(a.follow, map[int]bool{})
	return len(a.symbols) - 1
}

func (a *Automaton) build(e *Expr) posInfo {
	switch e.Kind {
	case KindName:
		p := a.newPosition(e.Name)
		info := newPosInfo()
		info.first[p] = true
		info.last[p] = true
		return info
	case KindPCDATA:
		p := a.newPosition(PCDATASymbol)
		info := newPosInfo()
		info.first[p] = true
		info.last[p] = true
		info.nullable = true // character data may be empty
		return info
	case KindSeq:
		info := a.build(e.Children[0])
		for _, c := range e.Children[1:] {
			right := a.build(c)
			// follow(last(left)) += first(right)
			for lp := range info.last {
				for rp := range right.first {
					a.follow[lp][rp] = true
				}
			}
			merged := newPosInfo()
			for p := range info.first {
				merged.first[p] = true
			}
			if info.nullable {
				for p := range right.first {
					merged.first[p] = true
				}
			}
			for p := range right.last {
				merged.last[p] = true
			}
			if right.nullable {
				for p := range info.last {
					merged.last[p] = true
				}
			}
			merged.nullable = info.nullable && right.nullable
			info = merged
		}
		return info
	case KindChoice:
		info := newPosInfo()
		for _, c := range e.Children {
			ci := a.build(c)
			for p := range ci.first {
				info.first[p] = true
			}
			for p := range ci.last {
				info.last[p] = true
			}
			info.nullable = info.nullable || ci.nullable
		}
		return info
	case KindStar, KindPlus:
		info := a.build(e.Children[0])
		for lp := range info.last {
			for fp := range info.first {
				a.follow[lp][fp] = true
			}
		}
		if e.Kind == KindStar {
			info.nullable = true
		}
		return info
	case KindOpt:
		info := a.build(e.Children[0])
		info.nullable = true
		return info
	}
	panic(fmt.Sprintf("contentmodel: unknown expression kind %v", e.Kind))
}

// Positions returns the number of positions in the automaton.
func (a *Automaton) Positions() int { return len(a.symbols) - 1 }

// Symbol returns the symbol carried by position p (1-based).
func (a *Automaton) Symbol(p int) string { return a.symbols[p] }

// First returns the sorted positions reachable from the start.
func (a *Automaton) First() []int { return sortedKeys(a.first) }

// Follow returns the sorted positions following position p.
func (a *Automaton) Follow(p int) []int { return sortedKeys(a.follow[p]) }

// Last reports whether position p may end a match.
func (a *Automaton) Last(p int) bool { return a.last[p] }

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Nullable reports whether the automaton accepts the empty sequence.
func (a *Automaton) Nullable() bool { return a.nullable }

// Match reports whether the sequence of symbols is in the language of the
// content model.
func (a *Automaton) Match(symbols []string) bool {
	if len(symbols) == 0 {
		return a.nullable
	}
	state := a.first
	for i, sym := range symbols {
		next := map[int]bool{}
		for p := range state {
			if a.symbols[p] == sym {
				if i == len(symbols)-1 {
					if a.last[p] {
						return true
					}
				}
				for q := range a.follow[p] {
					next[q] = true
				}
			}
		}
		if i == len(symbols)-1 {
			return false // only the last-position check above can accept
		}
		if len(next) == 0 {
			return false
		}
		state = next
	}
	return false
}

// MatchPrefix reports whether symbols is a prefix of some sequence in the
// language (useful for diagnostics: the first index at which matching fails).
// It returns the length of the longest viable prefix; len(symbols) means the
// whole input is viable.
func (a *Automaton) MatchPrefix(symbols []string) int {
	state := a.first
	for i, sym := range symbols {
		next := map[int]bool{}
		matched := false
		for p := range state {
			if a.symbols[p] == sym {
				matched = true
				for q := range a.follow[p] {
					next[q] = true
				}
			}
		}
		if !matched {
			return i
		}
		state = next
	}
	return len(symbols)
}

// DeterminismViolation describes a failure of the XML 1.0 "deterministic
// content model" constraint: two distinct positions carrying the same symbol
// are simultaneously reachable.
type DeterminismViolation struct {
	Symbol string
	// Context describes where the ambiguity arises ("first set" or the
	// symbol whose follow set is ambiguous).
	Context string
}

// String renders the violation as a one-line diagnostic naming the
// ambiguous symbol and where the ambiguity arises.
func (v DeterminismViolation) String() string {
	return fmt.Sprintf("content model is not deterministic: symbol %q is ambiguous in %s", v.Symbol, v.Context)
}

// CheckDeterminism verifies the XML 1.0 determinism (1-unambiguity)
// constraint on the automaton and returns all violations found. A valid DTD
// content model must be deterministic; the potential-validity machinery does
// not require determinism, so this check is surfaced as a lint.
func (a *Automaton) CheckDeterminism() []DeterminismViolation {
	var out []DeterminismViolation
	check := func(set map[int]bool, context string) {
		seen := map[string]int{}
		var dup []string
		for p := range set {
			sym := a.symbols[p]
			if _, ok := seen[sym]; ok {
				dup = append(dup, sym)
			}
			seen[sym] = p
		}
		sort.Strings(dup)
		prev := ""
		for _, sym := range dup {
			if sym == prev {
				continue
			}
			prev = sym
			out = append(out, DeterminismViolation{Symbol: sym, Context: context})
		}
	}
	check(a.first, "first set")
	for p := 1; p < len(a.symbols); p++ {
		check(a.follow[p], fmt.Sprintf("follow set of %q", a.symbols[p]))
	}
	return out
}
