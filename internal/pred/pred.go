// Package pred models the paper's single-relation selection predicates.
//
// A predicate P_i is a conjunction
//
//	P ≡ (tuple t is in relation Rj) ∧ C1 ∧ C2 ∧ ... ∧ Cq
//
// where each clause C is either an interval restriction on one attribute
// (const1 ρ1 t.attr ρ2 const2 with ρ ∈ {<, ≤}, equality being the
// degenerate point interval, and ±inf giving open-ended ranges) or an
// opaque boolean function of one attribute ("function(t.attribute)" —
// nothing is assumed about it except that it returns true or false).
// Predicates containing disjunctions are split into disjunction-free
// predicates before indexing (see Or and SplitDNF).
package pred

import (
	"fmt"
	"strings"

	"predmatch/internal/interval"
	"predmatch/internal/markset"
	"predmatch/internal/schema"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// ID identifies a predicate. Predicate IDs double as interval IDs in the
// IBS-trees of the matching scheme.
type ID = markset.ID

// Kind classifies a clause.
type Kind uint8

const (
	// KindInterval is an indexable restriction "t.attr within interval".
	KindInterval Kind = iota
	// KindFunc is a non-indexable opaque boolean function of an attribute.
	KindFunc
)

// Clause is one conjunct of a predicate.
type Clause struct {
	Attr string
	Kind Kind
	// Iv is the allowed interval for KindInterval clauses.
	Iv interval.Interval[value.Value]
	// Func names a registered boolean function for KindFunc clauses.
	Func string
}

// IvClause builds an interval clause on attr.
func IvClause(attr string, iv interval.Interval[value.Value]) Clause {
	return Clause{Attr: attr, Kind: KindInterval, Iv: iv}
}

// EqClause builds an equality clause, the point-interval special case.
func EqClause(attr string, v value.Value) Clause {
	return Clause{Attr: attr, Kind: KindInterval, Iv: interval.Point(v)}
}

// FnClause builds a function clause.
func FnClause(attr, fn string) Clause {
	return Clause{Attr: attr, Kind: KindFunc, Func: fn}
}

// Indexable reports whether the clause can be placed in a
// one-dimensional interval index.
func (c Clause) Indexable() bool { return c.Kind == KindInterval }

// String renders the clause with attr as qualified name.
func (c Clause) String() string {
	if c.Kind == KindFunc {
		return fmt.Sprintf("%s(%s)", c.Func, c.Attr)
	}
	if c.Iv.IsPoint(value.Compare) {
		return fmt.Sprintf("%s = %s", c.Attr, c.Iv.Lo.Value)
	}
	return fmt.Sprintf("%s in %s", c.Attr, c.Iv)
}

// Predicate is a disjunction-free single-relation selection condition.
type Predicate struct {
	ID      ID
	Rel     string
	Clauses []Clause
}

// New builds a predicate.
func New(id ID, rel string, clauses ...Clause) *Predicate {
	return &Predicate{ID: id, Rel: rel, Clauses: clauses}
}

// String renders the predicate.
func (p *Predicate) String() string {
	if len(p.Clauses) == 0 {
		return fmt.Sprintf("P%d: %s(*)", p.ID, p.Rel)
	}
	parts := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		parts[i] = c.String()
	}
	return fmt.Sprintf("P%d: %s where %s", p.ID, p.Rel, strings.Join(parts, " and "))
}

// Validate checks the predicate against a schema catalog and function
// registry: the relation and every attribute must exist, interval bounds
// must match the attribute type, and functions must be registered.
func (p *Predicate) Validate(cat *schema.Catalog, reg *Registry) error {
	rel, ok := cat.Get(p.Rel)
	if !ok {
		return fmt.Errorf("pred: unknown relation %s", p.Rel)
	}
	for _, c := range p.Clauses {
		kind, ok := rel.AttrType(c.Attr)
		if !ok {
			return fmt.Errorf("pred: relation %s has no attribute %s", p.Rel, c.Attr)
		}
		switch c.Kind {
		case KindInterval:
			if err := c.Iv.Validate(value.Compare); err != nil {
				return fmt.Errorf("pred: clause on %s.%s: %w", p.Rel, c.Attr, err)
			}
			if c.Iv.Lo.Kind == interval.Finite && c.Iv.Lo.Value.Kind() != kind {
				return fmt.Errorf("pred: clause on %s.%s compares %s attribute with %s bound",
					p.Rel, c.Attr, kind, c.Iv.Lo.Value.Kind())
			}
			if c.Iv.Hi.Kind == interval.Finite && c.Iv.Hi.Value.Kind() != kind {
				return fmt.Errorf("pred: clause on %s.%s compares %s attribute with %s bound",
					p.Rel, c.Attr, kind, c.Iv.Hi.Value.Kind())
			}
		case KindFunc:
			if _, ok := reg.Get(c.Func); !ok {
				return fmt.Errorf("pred: unknown function %s in clause on %s.%s", c.Func, p.Rel, c.Attr)
			}
		default:
			return fmt.Errorf("pred: unknown clause kind %d", c.Kind)
		}
	}
	return nil
}

// Bound is a predicate resolved against a relation schema and a function
// registry: attribute positions and function pointers are looked up once
// so the per-tuple test is allocation-free. This is the form stored in
// the matching schemes' PREDICATES table.
type Bound struct {
	Pred *Predicate
	idx  []int
	fns  []Func
}

// Bind resolves the predicate. It fails on the same conditions as
// Validate.
func (p *Predicate) Bind(cat *schema.Catalog, reg *Registry) (*Bound, error) {
	if err := p.Validate(cat, reg); err != nil {
		return nil, err
	}
	rel, _ := cat.Get(p.Rel)
	b := &Bound{
		Pred: p,
		idx:  make([]int, len(p.Clauses)),
		fns:  make([]Func, len(p.Clauses)),
	}
	for i, c := range p.Clauses {
		b.idx[i], _ = rel.AttrIndex(c.Attr)
		if c.Kind == KindFunc {
			b.fns[i], _ = reg.Get(c.Func)
		}
	}
	return b, nil
}

// Pos returns the attribute position clause i reads.
func (b *Bound) Pos(i int) int { return b.idx[i] }

// Fn returns the function bound to clause i, nil for an interval clause.
func (b *Bound) Fn(i int) Func { return b.fns[i] }

// Match tests the full conjunction against a tuple (the paper's final
// test against the PREDICATES table after a partial index match).
func (b *Bound) Match(t tuple.Tuple) bool { return b.MatchSkipping(t, -1) }

// MatchSkipping tests all clauses except the one at position skip, used
// when that clause was already verified by an index probe.
func (b *Bound) MatchSkipping(t tuple.Tuple, skip int) bool {
	for i := range b.Pred.Clauses {
		if i == skip {
			continue
		}
		c := &b.Pred.Clauses[i] // a Clause is 152 bytes: ranging by value copies each one
		v := t[b.idx[i]]
		switch c.Kind {
		case KindInterval:
			if !c.Iv.Contains(value.Compare, v) {
				return false
			}
		case KindFunc:
			if !b.fns[i](v) {
				return false
			}
		}
	}
	return true
}
