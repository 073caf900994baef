package turtle

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

// Write serializes triples as Turtle: prefix directives, subjects grouped
// with ';', objects grouped with ',', and the 'a' shorthand — the compact
// form WoD endpoints and dumps use.
//
// prefixes maps labels to namespaces (may be nil); only prefixes that
// actually shorten an IRI are emitted.
func Write(w io.Writer, triples []rdf.Triple, prefixes map[string]string) error {
	bw := bufio.NewWriter(w)

	// Keep only usable prefixes, longest namespace first so the most
	// specific one wins.
	type pfx struct{ label, ns string }
	var usable []pfx
	for label, ns := range prefixes {
		if label != "" && ns != "" {
			usable = append(usable, pfx{label, ns})
		}
	}
	sort.Slice(usable, func(i, j int) bool { return len(usable[i].ns) > len(usable[j].ns) })

	shorten := func(iri rdf.IRI) (string, bool) {
		s := string(iri)
		for _, p := range usable {
			if strings.HasPrefix(s, p.ns) {
				local := s[len(p.ns):]
				if local != "" && isSafeLocal(local) {
					return p.label + ":" + local, true
				}
			}
		}
		return "", false
	}
	used := map[string]bool{}
	term := func(t rdf.Term) string {
		switch tt := t.(type) {
		case rdf.IRI:
			if short, ok := shorten(tt); ok {
				used[strings.SplitN(short, ":", 2)[0]] = true
				return short
			}
			return tt.String()
		case rdf.Literal:
			// Datatype IRIs can be shortened too.
			if tt.Lang == "" && tt.Datatype != "" && tt.Datatype != rdf.XSDString {
				if short, ok := shorten(tt.Datatype); ok {
					used[strings.SplitN(short, ":", 2)[0]] = true
					return rdf.NewLiteral(tt.Lexical).String() + "^^" + short
				}
			}
			return tt.String()
		default:
			return t.String()
		}
	}

	// Group by subject, then predicate, preserving first-seen order.
	type po struct {
		pred rdf.IRI
		objs []rdf.Term
	}
	subjects := map[rdf.Term][]*po{}
	var order []rdf.Term
	for _, t := range triples {
		if !t.Valid() {
			return fmt.Errorf("turtle: cannot serialize invalid triple %v", t)
		}
		pos, ok := subjects[t.S]
		if !ok {
			order = append(order, t.S)
		}
		found := false
		for _, p := range pos {
			if p.pred == t.P {
				p.objs = append(p.objs, t.O)
				found = true
				break
			}
		}
		if !found {
			subjects[t.S] = append(pos, &po{pred: t.P, objs: []rdf.Term{t.O}})
		}
	}

	// Render bodies first so we only declare used prefixes.
	var body strings.Builder
	for _, s := range order {
		body.WriteString(term(s))
		pos := subjects[s]
		for pi, p := range pos {
			if pi == 0 {
				body.WriteByte(' ')
			} else {
				body.WriteString(" ;\n    ")
			}
			if p.pred == rdf.RDFType {
				body.WriteString("a")
			} else {
				body.WriteString(term(rdf.Term(p.pred)))
			}
			for oi, o := range p.objs {
				if oi == 0 {
					body.WriteByte(' ')
				} else {
					body.WriteString(", ")
				}
				body.WriteString(term(o))
			}
		}
		body.WriteString(" .\n")
	}

	var labels []string
	for l := range used {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		for _, p := range usable {
			if p.label == l {
				fmt.Fprintf(bw, "@prefix %s: <%s> .\n", l, p.ns)
			}
		}
	}
	if len(labels) > 0 {
		bw.WriteByte('\n')
	}
	if _, err := bw.WriteString(body.String()); err != nil {
		return fmt.Errorf("turtle: write: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("turtle: flush: %w", err)
	}
	return nil
}

// Format returns the Turtle serialization as a string.
func Format(triples []rdf.Triple, prefixes map[string]string) string {
	var b strings.Builder
	// Write only fails on invalid triples with a strings.Builder sink.
	if err := Write(&b, triples, prefixes); err != nil {
		return ""
	}
	return b.String()
}

// isSafeLocal reports whether a local name can appear un-escaped in a
// prefixed name.
func isSafeLocal(s string) bool {
	if strings.HasSuffix(s, ".") {
		return false
	}
	for _, r := range s {
		if !rdf.IsPNChar(r) {
			return false
		}
	}
	return true
}
