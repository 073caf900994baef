package sparql

import (
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

// This file renders parsed query fragments back to SPARQL text. The
// federation layer uses it to ship a SERVICE clause's inner pattern to a
// remote endpoint: the pattern travels as a freshly generated, canonical
// query string, so two queries that parse to the same AST serialize
// identically (which also makes the remote-result cache key stable).

// FormatGroup renders a group graph pattern, braces included, as a single
// line of SPARQL. All constant terms are rendered in absolute form (full
// IRIs, typed literals), so the output is self-contained: it parses without
// any prologue.
func FormatGroup(g *Group) string {
	var b strings.Builder
	writeGroup(&b, g)
	return b.String()
}

func writeGroup(b *strings.Builder, g *Group) {
	b.WriteString("{ ")
	for _, el := range g.Elems {
		writeGroupElem(b, el)
		b.WriteByte(' ')
	}
	for _, f := range g.Filters {
		b.WriteString("FILTER (")
		writeExpr(b, f)
		b.WriteString(") ")
	}
	b.WriteString("}")
}

func writeGroupElem(b *strings.Builder, el GroupElem) {
	switch el := el.(type) {
	case TriplePattern:
		writeNode(b, el.S)
		b.WriteByte(' ')
		writeNode(b, el.P)
		b.WriteByte(' ')
		writeNode(b, el.O)
		b.WriteString(" .")
	case SubGroup:
		writeGroup(b, el.Inner)
	case Optional:
		b.WriteString("OPTIONAL ")
		writeGroup(b, el.Inner)
	case Union:
		writeGroup(b, el.Left)
		b.WriteString(" UNION ")
		writeGroup(b, el.Right)
	case Bind:
		b.WriteString("BIND(")
		writeExpr(b, el.Expr)
		b.WriteString(" AS ?")
		b.WriteString(el.Var)
		b.WriteString(")")
	case Values:
		writeValues(b, el)
	case Service:
		b.WriteString("SERVICE ")
		if el.Silent {
			b.WriteString("SILENT ")
		}
		b.WriteString("<" + el.Endpoint + "> ")
		writeGroup(b, el.Inner)
	}
}

func writeValues(b *strings.Builder, v Values) {
	b.WriteString("VALUES (")
	for i, name := range v.Vars {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("?" + name)
	}
	b.WriteString(") { ")
	for _, row := range v.Rows {
		b.WriteString("(")
		for i, t := range row {
			if i > 0 {
				b.WriteByte(' ')
			}
			if t == nil {
				b.WriteString("UNDEF")
			} else {
				b.WriteString(t.String())
			}
		}
		b.WriteString(") ")
	}
	b.WriteString("}")
}

func writeNode(b *strings.Builder, n Node) {
	if n.IsVar() {
		b.WriteString("?" + n.Var)
		return
	}
	b.WriteString(n.Term.String())
}

func writeExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case ExVar:
		b.WriteString("?" + e.Name)
	case ExTerm:
		b.WriteString(e.Term.String())
	case ExBinary:
		b.WriteString("(")
		writeExpr(b, e.Left)
		b.WriteString(" " + e.Op + " ")
		writeExpr(b, e.Right)
		b.WriteString(")")
	case ExUnary:
		b.WriteString(e.Op + "(")
		writeExpr(b, e.Expr)
		b.WriteString(")")
	case ExCall:
		b.WriteString(e.Name + "(")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a)
		}
		b.WriteString(")")
	case ExAggregate:
		b.WriteString(e.Name + "(")
		if e.Distinct {
			b.WriteString("DISTINCT ")
		}
		if e.Star {
			b.WriteString("*")
		} else if e.Arg != nil {
			writeExpr(b, e.Arg)
		}
		if e.Name == "GROUP_CONCAT" && e.Separator != " " {
			b.WriteString("; SEPARATOR = " + rdf.NewLiteral(e.Separator).String())
		}
		b.WriteString(")")
	}
}

// BindableVars collects the variables a group pattern can bind (triple
// patterns, BIND targets, VALUES columns, and nested groups — FILTER-only
// variables are excluded, since a FILTER never binds). The federation layer
// uses this to decide which local bindings are worth injecting into a remote
// subquery.
func BindableVars(g *Group) []string {
	set := map[string]bool{}
	collectBindableVars(g, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	return out
}

func collectBindableVars(g *Group, set map[string]bool) {
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			for _, n := range []Node{el.S, el.P, el.O} {
				if n.IsVar() {
					set[n.Var] = true
				}
			}
		case SubGroup:
			collectBindableVars(el.Inner, set)
		case Optional:
			collectBindableVars(el.Inner, set)
		case Union:
			collectBindableVars(el.Left, set)
			collectBindableVars(el.Right, set)
		case Bind:
			set[el.Var] = true
		case Values:
			for _, v := range el.Vars {
				set[v] = true
			}
		case Service:
			collectBindableVars(el.Inner, set)
		}
	}
}

// CertainVars collects the variables a group pattern binds in *every*
// solution it produces — the sound set for bind-join injection. A variable
// that is only optionally bound (OPTIONAL), bound in just one UNION branch,
// assigned by a BIND whose expression may error, or UNDEF in some VALUES
// row is excluded: constraining such a variable remotely could eliminate
// solutions that spec SERVICE semantics (evaluate remotely in isolation,
// join locally) would keep — or keep ones it would drop.
func CertainVars(g *Group) []string {
	set := map[string]bool{}
	collectCertainVars(g, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	return out
}

func collectCertainVars(g *Group, set map[string]bool) {
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			for _, n := range []Node{el.S, el.P, el.O} {
				if n.IsVar() {
					set[n.Var] = true
				}
			}
		case SubGroup:
			collectCertainVars(el.Inner, set)
		case Union:
			// Certain only when both branches bind it.
			left, right := map[string]bool{}, map[string]bool{}
			collectCertainVars(el.Left, left)
			collectCertainVars(el.Right, right)
			for v := range left {
				if right[v] {
					set[v] = true
				}
			}
		case Values:
			for i, v := range el.Vars {
				bound := len(el.Rows) > 0
				for _, row := range el.Rows {
					if row[i] == nil {
						bound = false
						break
					}
				}
				if bound {
					set[v] = true
				}
			}
			// Optional, Bind, Service: never certain.
		}
	}
}

// HasService reports whether the group contains a SERVICE clause at any
// nesting depth. The HTTP server uses it to route federated queries past
// the response cache, whose entries answer to the local change log only.
func HasService(g *Group) bool {
	for _, el := range g.Elems {
		switch el := el.(type) {
		case Service:
			return true
		case SubGroup:
			if HasService(el.Inner) {
				return true
			}
		case Optional:
			if HasService(el.Inner) {
				return true
			}
		case Union:
			if HasService(el.Left) || HasService(el.Right) {
				return true
			}
		}
	}
	return false
}
