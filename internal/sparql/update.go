package sparql

import (
	"context"
	"fmt"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// This file is the SPARQL 1.1 Update subset: INSERT DATA, DELETE DATA, and
// DELETE WHERE, parsed by the same lexer/parser machinery as queries and
// executed against an UpdateStore. The WHERE scan of DELETE WHERE runs
// through the engine's one pattern executor (idjoin.go), so a pattern delete
// plans like the equivalent SELECT.

// UpdateStore is what updates execute against: the source plus the two
// batch writes. *store.Store satisfies it.
type UpdateStore interface {
	store.Source
	// AddBatch atomically inserts a batch, returning how many triples
	// changed the live set.
	AddBatch(triples []rdf.Triple) (int, error)
	// DeleteBatch atomically removes a batch, returning how many triples
	// were present.
	DeleteBatch(triples []rdf.Triple) (int, error)
}

var _ UpdateStore = (*store.Store)(nil)

// Update is a parsed SPARQL update request: one or more operations,
// ';'-separated in the source, executed in order.
type Update struct {
	Ops []UpdateOp
}

// UpdateOp is one update operation.
type UpdateOp interface{ updateOp() }

// InsertData inserts ground triples (INSERT DATA).
type InsertData struct{ Triples []rdf.Triple }

// DeleteData removes ground triples (DELETE DATA).
type DeleteData struct{ Triples []rdf.Triple }

// DeleteWhere removes every instantiation of its pattern that matches
// (DELETE WHERE): the group is both the WHERE clause and the delete
// template, and — per the grammar — may contain only triple patterns.
type DeleteWhere struct{ Pattern *Group }

func (InsertData) updateOp()  {}
func (DeleteData) updateOp()  {}
func (DeleteWhere) updateOp() {}

// UpdateResult reports what an executed update changed.
type UpdateResult struct {
	// Inserted counts triples that were actually added (duplicates of
	// existing triples count zero).
	Inserted int
	// Deleted counts triples that were actually removed.
	Deleted int
	// Ops counts the executed operations.
	Ops int
}

// ParseUpdate parses a SPARQL update string (PREFIX/BASE prologue, then
// ';'-separated INSERT DATA / DELETE DATA / DELETE WHERE operations).
// Errors match ErrParse under errors.Is.
func ParseUpdate(src string) (*Update, error) {
	p := newParser(src)
	if err := p.advance(); err != nil {
		return nil, wrapParse(err)
	}
	u, err := p.parseUpdate()
	if err != nil {
		return nil, wrapParse(err)
	}
	return u, nil
}

func (p *parser) parseUpdate() (*Update, error) {
	u := &Update{}
	for {
		if err := p.parsePrologue(); err != nil {
			return nil, err
		}
		if p.tok.kind == tEOF {
			break
		}
		op, err := p.parseUpdateOp()
		if err != nil {
			return nil, err
		}
		u.Ops = append(u.Ops, op)
		if p.tok.kind == tSemicolon {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue // a trailing ';' before EOF is fine
		}
		break
	}
	if p.tok.kind != tEOF {
		return nil, p.errf("unexpected trailing %v", p.tok.kind)
	}
	if len(u.Ops) == 0 {
		return nil, p.errf("empty update request")
	}
	return u, nil
}

func (p *parser) parseUpdateOp() (UpdateOp, error) {
	switch {
	case p.isKeyword("INSERT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("DATA"); err != nil {
			return nil, err
		}
		ts, err := p.parseGroundData(true)
		if err != nil {
			return nil, err
		}
		return InsertData{Triples: ts}, nil
	case p.isKeyword("DELETE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch {
		case p.isKeyword("DATA"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			// DELETE DATA forbids blank nodes: a blank node label denotes
			// some unnamed resource, so "delete this specific triple" is
			// ill-defined for it.
			ts, err := p.parseGroundData(false)
			if err != nil {
				return nil, err
			}
			return DeleteData{Triples: ts}, nil
		case p.isKeyword("WHERE"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			g, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			if len(g.Filters) > 0 {
				return nil, p.errf("DELETE WHERE allows only triple patterns (no FILTER)")
			}
			for _, el := range g.Elems {
				if _, ok := el.(TriplePattern); !ok {
					return nil, p.errf("DELETE WHERE allows only triple patterns")
				}
			}
			return DeleteWhere{Pattern: g}, nil
		default:
			return nil, p.errf("expected DATA or WHERE after DELETE")
		}
	default:
		return nil, p.errf("expected INSERT or DELETE")
	}
}

// parseGroundData parses '{' ground triples '}' — a triples block with
// variables (and anonymous []) rejected. allowBlank admits labeled blank
// nodes in subject/object position (INSERT DATA yes, DELETE DATA no).
func (p *parser) parseGroundData(allowBlank bool) ([]rdf.Triple, error) {
	if err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	p.groundOnly = true
	defer func() { p.groundOnly = false }()
	g := &Group{}
	for p.tok.kind != tRBrace {
		if err := p.parseTriplesBlock(g); err != nil {
			return nil, err
		}
		for p.tok.kind == tDot {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}

	ts := make([]rdf.Triple, 0, len(g.Elems))
	for _, el := range g.Elems {
		tp, ok := el.(TriplePattern)
		if !ok || tp.S.IsVar() || tp.P.IsVar() || tp.O.IsVar() {
			return nil, p.errf("update data must be ground triples")
		}
		pred, ok := tp.P.Term.(rdf.IRI)
		if !ok {
			return nil, p.errf("update data predicate must be an IRI")
		}
		t := rdf.Triple{S: tp.S.Term, P: pred, O: tp.O.Term}
		if !t.Valid() {
			return nil, p.errf("invalid triple in update data: %v", t)
		}
		if !allowBlank {
			if _, b := t.S.(rdf.BlankNode); b {
				return nil, p.errf("blank nodes are not allowed in DELETE DATA")
			}
			if _, b := t.O.(rdf.BlankNode); b {
				return nil, p.errf("blank nodes are not allowed in DELETE DATA")
			}
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// ExecUpdateCtx parses and executes an update. Parse errors match ErrParse;
// execution errors match ErrEval.
func ExecUpdateCtx(ctx context.Context, st UpdateStore, src string, opt Options) (*UpdateResult, error) {
	u, err := ParseUpdate(src)
	if err != nil {
		return nil, err
	}
	return EvalUpdateCtx(ctx, st, u, opt)
}

// EvalUpdateCtx executes a parsed update's operations in order. Each
// operation's batch is applied atomically (one AddBatch/DeleteBatch call),
// but a multi-operation request is not transactional across operations: an
// error leaves earlier operations applied, and the result counts them.
func EvalUpdateCtx(ctx context.Context, st UpdateStore, u *Update, opt Options) (*UpdateResult, error) {
	if opt.Metrics != nil {
		opt.Metrics.Updates.Inc()
	}
	res := &UpdateResult{}
	for _, op := range u.Ops {
		if err := ctx.Err(); err != nil {
			return res, wrapEval(err)
		}
		switch o := op.(type) {
		case InsertData:
			n, err := st.AddBatch(o.Triples)
			if err != nil {
				return res, wrapEval(err)
			}
			res.Inserted += n
		case DeleteData:
			n, err := st.DeleteBatch(o.Triples)
			if err != nil {
				return res, wrapEval(err)
			}
			res.Deleted += n
		case DeleteWhere:
			ts, err := matchDeleteWhere(ctx, st, o.Pattern, opt)
			if err != nil {
				return res, err
			}
			n, err := st.DeleteBatch(ts)
			if err != nil {
				return res, wrapEval(err)
			}
			res.Deleted += n
		default:
			return res, wrapEval(fmt.Errorf("sparql: unsupported update operation %T", op))
		}
		res.Ops++
	}
	return res, nil
}

// matchDeleteWhere runs the pattern through the BGP engine and instantiates
// it per solution, deduplicating the resulting ground triples. Solutions
// that leave a position unbound or non-ground (per SPARQL Update, e.g. a
// literal in subject position never materializes) are skipped.
func matchDeleteWhere(ctx context.Context, st UpdateStore, g *Group, opt Options) ([]rdf.Triple, error) {
	e := newEngine(ctx, st, opt)
	rows, err := e.evalGroup(g, []Binding{{}})
	if err != nil {
		return nil, wrapEval(err)
	}
	seen := make(map[rdf.Triple]struct{})
	var out []rdf.Triple
	resolve := func(n Node, b Binding) rdf.Term {
		if n.IsVar() {
			return b[n.Var]
		}
		return n.Term
	}
	for _, b := range rows {
		for _, el := range g.Elems {
			tp := el.(TriplePattern) // parseUpdateOp guarantees the shape
			pred, ok := resolve(tp.P, b).(rdf.IRI)
			if !ok {
				continue
			}
			t := rdf.Triple{S: resolve(tp.S, b), P: pred, O: resolve(tp.O, b)}
			if !t.Valid() {
				continue
			}
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	return out, nil
}
