// Package grammar implements Section 3 of the paper: the extended
// context-free grammar G(T,r) for checking validity, its relaxation
// G'(T,r) for checking potential validity (adding X → X̂ for every element
// x, so that start/end tags may be omitted), the flattening operators δ_T
// and Δ_T, and an export of both grammars to plain context-free form for
// the Earley baseline.
package grammar

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/dtd"
)

// Terminal symbols of Σ: for each element x the start tag "<x>" and end tag
// "</x>", plus the character-data terminal σ.
const (
	// SigmaTerminal is the terminal σ: a non-empty character data string.
	SigmaTerminal = "σ"
)

// StartTagTerminal returns the terminal for <x>.
func StartTagTerminal(x string) string { return "<" + x + ">" }

// EndTagTerminal returns the terminal for </x>.
func EndTagTerminal(x string) string { return "</" + x + ">" }

// DeltaT implements the δ_T operator on a DOM subtree: the full document
// flattened to a terminal string over Σ, with every maximal run of
// character data replaced by a single σ while the markup structure is
// preserved.
func DeltaT(n *dom.Node) []string {
	var out []string
	var visit func(n *dom.Node)
	visit = func(n *dom.Node) {
		switch n.Kind {
		case dom.TextNode:
			if n.Data == "" {
				return
			}
			if len(out) > 0 && out[len(out)-1] == SigmaTerminal {
				return // consecutive character data collapses
			}
			out = append(out, SigmaTerminal)
		case dom.ElementNode:
			out = append(out, StartTagTerminal(n.Name))
			for _, c := range n.Children {
				visit(c)
			}
			out = append(out, EndTagTerminal(n.Name))
		}
		// comments and PIs vanish under δ_T
	}
	visit(n)
	return out
}

// DeltaTString renders δ_T(w) in the paper's concatenated notation, e.g.
// "<a><b>σ</b><c>σ</c><d>σ<e></e></d></a>".
func DeltaTString(n *dom.Node) string { return strings.Join(DeltaT(n), "") }

// BigDeltaT implements the Δ_T operator: the subtree rooted at n flattened
// with all descendants below the children removed — i.e. the root's tags
// around the sequence of its children's tag pairs and σ runs.
func BigDeltaT(n *dom.Node) []string {
	out := []string{StartTagTerminal(n.Name)}
	lastSigma := false
	for _, c := range n.Children {
		switch c.Kind {
		case dom.ElementNode:
			out = append(out, StartTagTerminal(c.Name), EndTagTerminal(c.Name))
			lastSigma = false
		case dom.TextNode:
			if c.Data == "" || lastSigma {
				continue
			}
			out = append(out, SigmaTerminal)
			lastSigma = true
		}
	}
	return append(out, EndTagTerminal(n.Name))
}

// BigDeltaTString renders Δ_T(w) in concatenated notation, e.g.
// "<a><b></b><e></e><c></c>σ</a>" (the paper's Section 4 example).
func BigDeltaTString(n *dom.Node) string { return strings.Join(BigDeltaT(n), "") }

// Rule is one production of the (extended) grammar, rendered with the
// right-hand side as a regular expression string for display, plus the raw
// content-model expression when the RHS comes from a DTD rule.
type Rule struct {
	LHS string
	// RHS is the display form of the right-hand side.
	RHS string
	// Model is the content-model expression behind an X̂ → r_X rule; nil
	// for the structural rules.
	Model *contentmodel.Expr
}

// String renders the rule as "LHS -> RHS".
func (r Rule) String() string { return r.LHS + " -> " + r.RHS }

// ECFG is the extended context-free grammar G(T,r) of Section 3.1, or its
// relaxation G'(T,r) of Section 3.2 when Relaxed is set.
type ECFG struct {
	DTD     *dtd.DTD
	Root    string
	Relaxed bool
	Rules   []Rule
}

// hatName returns the paper's X̂ nonterminal name for element x.
func hatName(x string) string { return "hat_" + x }

// ntName returns the paper's X nonterminal name for element x.
func ntName(x string) string { return "nt_" + x }

// BuildECFG constructs G(T,r) (relaxed=false) or G'(T,r) (relaxed=true).
// The rule list is in the paper's presentation order: S → R, the PCDATA
// rules, then per element the tag rule X → <x> X̂ </x>, the optional
// relaxation X → X̂, and the content rule X̂ → r_X.
func BuildECFG(d *dtd.DTD, root string, relaxed bool) (*ECFG, error) {
	if _, ok := d.Elements[root]; !ok {
		return nil, fmt.Errorf("grammar: root element %q is not declared", root)
	}
	g := &ECFG{DTD: d, Root: root, Relaxed: relaxed}
	g.Rules = append(g.Rules,
		Rule{LHS: "S", RHS: ntName(root)},
		Rule{LHS: "PCDATA", RHS: SigmaTerminal},
		Rule{LHS: "PCDATA", RHS: "ε"},
	)
	for _, x := range d.Order {
		decl := d.Elements[x]
		g.Rules = append(g.Rules, Rule{
			LHS: ntName(x),
			RHS: StartTagTerminal(x) + " " + hatName(x) + " " + EndTagTerminal(x),
		})
		if relaxed {
			// The Section 3.2 relaxation: tags may be omitted.
			g.Rules = append(g.Rules, Rule{LHS: ntName(x), RHS: hatName(x)})
		}
		g.Rules = append(g.Rules, contentRule(d, x, decl))
	}
	return g, nil
}

// contentRule builds X̂ → r_X, transcribing the content model with every
// element y replaced by its nonterminal Y (Section 3.1); ANY expands to
// (Z1 | ... | Zn | PCDATA)* over all declared elements.
func contentRule(d *dtd.DTD, x string, decl *dtd.ElementDecl) Rule {
	switch decl.Category {
	case dtd.Empty:
		return Rule{LHS: hatName(x), RHS: "ε"}
	case dtd.Any:
		parts := make([]string, 0, len(d.Order)+1)
		for _, z := range d.Order {
			parts = append(parts, ntName(z))
		}
		parts = append(parts, "PCDATA")
		return Rule{LHS: hatName(x), RHS: "(" + strings.Join(parts, " | ") + ")*"}
	default:
		return Rule{LHS: hatName(x), RHS: transcribe(decl.Model), Model: decl.Model}
	}
}

// transcribe renders a content model with nonterminal names substituted.
func transcribe(e *contentmodel.Expr) string {
	switch e.Kind {
	case contentmodel.KindPCDATA:
		return "PCDATA"
	case contentmodel.KindName:
		return ntName(e.Name)
	case contentmodel.KindSeq, contentmodel.KindChoice:
		sep := ", "
		if e.Kind == contentmodel.KindChoice {
			sep = " | "
		}
		parts := make([]string, len(e.Children))
		for i, c := range e.Children {
			parts[i] = transcribe(c)
		}
		return "(" + strings.Join(parts, sep) + ")"
	case contentmodel.KindStar:
		return transcribe(e.Children[0]) + "*"
	case contentmodel.KindPlus:
		return transcribe(e.Children[0]) + "+"
	case contentmodel.KindOpt:
		return transcribe(e.Children[0]) + "?"
	}
	return "?"
}

// String renders the grammar, one rule per line, for display and tests.
func (g *ECFG) String() string {
	var b strings.Builder
	kind := "G"
	if g.Relaxed {
		kind = "G'"
	}
	fmt.Fprintf(&b, "%s(T, %s):\n", kind, g.Root)
	for _, r := range g.Rules {
		b.WriteString("  ")
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Nonterminals returns the sorted nonterminal set N of the grammar:
// S, PCDATA, and X, X̂ for every element (Section 3.1).
func (g *ECFG) Nonterminals() []string {
	out := []string{"S", "PCDATA"}
	for _, x := range g.DTD.Order {
		out = append(out, ntName(x), hatName(x))
	}
	sort.Strings(out)
	return out
}

// Terminals returns the sorted terminal set Σ: σ plus tag terminals.
func (g *ECFG) Terminals() []string {
	out := []string{SigmaTerminal}
	for _, x := range g.DTD.Order {
		out = append(out, StartTagTerminal(x), EndTagTerminal(x))
	}
	sort.Strings(out)
	return out
}
