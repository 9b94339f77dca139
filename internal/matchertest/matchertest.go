// Package matchertest provides a conformance harness for predicate
// matchers: every strategy must return exactly the set of predicates a
// direct evaluation of all predicates returns, across random schemas,
// predicate shapes and tuple streams, and across predicate insertion and
// removal. Each matcher package runs this harness in its tests.
package matchertest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"predmatch/internal/interval"
	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// Fixture is a ready-made multi-relation schema with value generators.
type Fixture struct {
	Catalog *schema.Catalog
	Funcs   *pred.Registry
	Rels    []*schema.Relation
}

// NewFixture builds the standard test schema: three relations with mixed
// attribute types, echoing the paper's EMP example.
func NewFixture() *Fixture {
	cat := schema.NewCatalog()
	rels := []*schema.Relation{
		schema.MustRelation("emp",
			schema.Attribute{Name: "name", Type: value.KindString},
			schema.Attribute{Name: "age", Type: value.KindInt},
			schema.Attribute{Name: "salary", Type: value.KindInt},
			schema.Attribute{Name: "dept", Type: value.KindString},
		),
		schema.MustRelation("items",
			schema.Attribute{Name: "sku", Type: value.KindInt},
			schema.Attribute{Name: "stock", Type: value.KindInt},
			schema.Attribute{Name: "threshold", Type: value.KindInt},
			schema.Attribute{Name: "price", Type: value.KindFloat},
		),
		schema.MustRelation("events",
			schema.Attribute{Name: "kind", Type: value.KindString},
			schema.Attribute{Name: "severity", Type: value.KindInt},
			schema.Attribute{Name: "open", Type: value.KindBool},
		),
	}
	for _, r := range rels {
		if err := cat.Add(r); err != nil {
			panic(err)
		}
	}
	return &Fixture{Catalog: cat, Funcs: pred.NewRegistry(), Rels: rels}
}

var depts = []string{"shoe", "toy", "produce", "deli", "pharmacy"}
var kinds = []string{"alert", "info", "audit", "trace"}
var names = []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace"}

// RandomValue draws a value of the given kind from small domains so that
// predicates actually match tuples with useful probability.
func (f *Fixture) RandomValue(rng *rand.Rand, kind value.Kind, attr string) value.Value {
	switch kind {
	case value.KindInt:
		return value.Int(int64(rng.Intn(100)))
	case value.KindFloat:
		return value.Float(float64(rng.Intn(200)) / 2)
	case value.KindBool:
		return value.Bool(rng.Intn(2) == 0)
	default:
		switch attr {
		case "dept":
			return value.String_(depts[rng.Intn(len(depts))])
		case "kind":
			return value.String_(kinds[rng.Intn(len(kinds))])
		default:
			return value.String_(names[rng.Intn(len(names))])
		}
	}
}

// RandomTuple draws a conforming tuple for rel.
func (f *Fixture) RandomTuple(rng *rand.Rand, rel *schema.Relation) tuple.Tuple {
	t := make(tuple.Tuple, rel.Arity())
	for i, a := range rel.Attrs() {
		t[i] = f.RandomValue(rng, a.Type, a.Name)
	}
	return t
}

// RandomClause draws a clause on a random attribute of rel: interval and
// equality clauses on any type, occasionally a function clause.
func (f *Fixture) RandomClause(rng *rand.Rand, rel *schema.Relation) pred.Clause {
	attrs := rel.Attrs()
	a := attrs[rng.Intn(len(attrs))]
	if rng.Intn(6) == 0 {
		fns := []string{"isodd", "iseven", "ispositive", "isempty"}
		return pred.FnClause(a.Name, fns[rng.Intn(len(fns))])
	}
	v1 := f.RandomValue(rng, a.Type, a.Name)
	v2 := f.RandomValue(rng, a.Type, a.Name)
	if value.Less(v2, v1) {
		v1, v2 = v2, v1
	}
	switch rng.Intn(6) {
	case 0:
		return pred.EqClause(a.Name, v1)
	case 1:
		return pred.IvClause(a.Name, interval.AtLeast(v1))
	case 2:
		return pred.IvClause(a.Name, interval.AtMost(v2))
	case 3:
		if value.Equal(v1, v2) {
			return pred.EqClause(a.Name, v1)
		}
		return pred.IvClause(a.Name, interval.Open(v1, v2))
	default:
		return pred.IvClause(a.Name, interval.Closed(v1, v2))
	}
}

// RandomPredicate draws a disjunction-free predicate with 1-3 clauses on
// a random relation.
func (f *Fixture) RandomPredicate(rng *rand.Rand, id pred.ID) *pred.Predicate {
	rel := f.Rels[rng.Intn(len(f.Rels))]
	n := 1 + rng.Intn(3)
	clauses := make([]pred.Clause, n)
	for i := range clauses {
		clauses[i] = f.RandomClause(rng, rel)
	}
	return pred.New(id, rel.Name(), clauses...)
}

// reference evaluates all predicates directly.
type reference struct {
	fix   *Fixture
	preds map[pred.ID]*pred.Bound
}

func (r *reference) match(rel string, t tuple.Tuple) []pred.ID {
	var out []pred.ID
	for id, b := range r.preds {
		if b.Pred.Rel == rel && b.Match(t) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Factory builds the matcher under test for a fixture.
type Factory func(f *Fixture) matcher.Matcher

// Run drives the conformance suite against the matcher built by factory.
func Run(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("conformance", func(t *testing.T) { runRandomized(t, factory) })
	t.Run("errors", func(t *testing.T) { runErrors(t, factory) })
	t.Run("multiRelation", func(t *testing.T) { runMultiRelation(t, factory) })
	t.Run("dstAppend", func(t *testing.T) { runDstAppend(t, factory) })
}

// runDstAppend pins the Match dst contract for every strategy: results
// are appended to the caller's dst — an existing prefix is preserved
// byte for byte, spare capacity may be reused but never clobbered, and
// each matching ID appears exactly once in the appended suffix.
func runDstAppend(t *testing.T, factory Factory) {
	fix := NewFixture()
	rng := rand.New(rand.NewSource(11))
	m := factory(fix)
	ref := &reference{fix: fix, preds: map[pred.ID]*pred.Bound{}}
	for id := pred.ID(0); id < 60; id++ {
		p := fix.RandomPredicate(rng, id)
		if err := m.Add(p); err != nil {
			t.Fatalf("Add(%v): %v", p, err)
		}
		b, err := p.Bind(fix.Catalog, fix.Funcs)
		if err != nil {
			t.Fatalf("Bind: %v", err)
		}
		ref.preds[p.ID] = b
	}

	// sentinel IDs can never be produced by a real match.
	const sentinel = pred.ID(1) << 60
	for i := 0; i < 200; i++ {
		rel := fix.Rels[rng.Intn(len(fix.Rels))]
		tup := fix.RandomTuple(rng, rel)
		prefix := []pred.ID{sentinel, sentinel + pred.ID(i+1)}
		// Alternate between an exactly-sized dst and one with spare
		// capacity, so in-place append reuse is exercised both ways.
		var dst []pred.ID
		if i%2 == 0 {
			dst = append([]pred.ID(nil), prefix...)
		} else {
			dst = make([]pred.ID, 0, 64)
			dst = append(dst, prefix...)
		}
		got, err := m.Match(rel.Name(), tup, dst)
		if err != nil {
			t.Fatalf("probe %d: Match: %v", i, err)
		}
		if len(got) < len(prefix) || got[0] != prefix[0] || got[1] != prefix[1] {
			t.Fatalf("probe %d: dst prefix clobbered: %v (want prefix %v)", i, got, prefix)
		}
		if dst[0] != prefix[0] || dst[1] != prefix[1] {
			t.Fatalf("probe %d: caller's dst slice mutated: %v", i, dst)
		}
		suffix := append([]pred.ID(nil), got[len(prefix):]...)
		sort.Slice(suffix, func(i, j int) bool { return suffix[i] < suffix[j] })
		for j := 1; j < len(suffix); j++ {
			if suffix[j] == suffix[j-1] {
				t.Fatalf("probe %d: ID %d appended more than once: %v", i, suffix[j], got)
			}
		}
		if want := ref.match(rel.Name(), tup); !equalIDs(suffix, want) {
			t.Fatalf("probe %d: appended %v, want %v", i, suffix, want)
		}
	}
}

func runRandomized(t *testing.T, factory Factory) {
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fix := NewFixture()
			rng := rand.New(rand.NewSource(seed))
			m := factory(fix)
			ref := &reference{fix: fix, preds: map[pred.ID]*pred.Bound{}}
			nextID := pred.ID(0)
			var live []pred.ID

			ops := 300
			if testing.Short() {
				ops = 80
			}
			for op := 0; op < ops; op++ {
				switch {
				case len(live) == 0 || rng.Intn(4) != 0:
					p := fix.RandomPredicate(rng, nextID)
					nextID++
					if err := m.Add(p); err != nil {
						t.Fatalf("op %d: Add(%v): %v", op, p, err)
					}
					b, err := p.Bind(fix.Catalog, fix.Funcs)
					if err != nil {
						t.Fatalf("op %d: Bind: %v", op, err)
					}
					ref.preds[p.ID] = b
					live = append(live, p.ID)
				default:
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					if err := m.Remove(id); err != nil {
						t.Fatalf("op %d: Remove(%d): %v", op, id, err)
					}
					delete(ref.preds, id)
				}
				if m.Len() != len(ref.preds) {
					t.Fatalf("op %d: Len %d, want %d", op, m.Len(), len(ref.preds))
				}
				// Match a few random tuples per operation.
				for i := 0; i < 4; i++ {
					rel := fix.Rels[rng.Intn(len(fix.Rels))]
					tup := fix.RandomTuple(rng, rel)
					got, err := m.Match(rel.Name(), tup, nil)
					if err != nil {
						t.Fatalf("op %d: Match: %v", op, err)
					}
					sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
					want := ref.match(rel.Name(), tup)
					if !equalIDs(got, want) {
						t.Fatalf("op %d: Match(%s, %v) = %v, want %v", op, rel.Name(), tup, got, want)
					}
				}
			}
		})
	}
}

func runErrors(t *testing.T, factory Factory) {
	fix := NewFixture()
	m := factory(fix)
	p := pred.New(1, "emp", pred.EqClause("dept", value.String_("shoe")))
	if err := m.Add(p); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := m.Add(p); err == nil {
		t.Error("duplicate Add accepted")
	}
	if err := m.Add(pred.New(2, "nosuch", pred.EqClause("x", value.Int(1)))); err == nil {
		t.Error("Add with unknown relation accepted")
	}
	if err := m.Add(pred.New(3, "emp", pred.EqClause("nosuch", value.Int(1)))); err == nil {
		t.Error("Add with unknown attribute accepted")
	}
	if err := m.Add(pred.New(4, "emp", pred.EqClause("age", value.String_("x")))); err == nil {
		t.Error("Add with type-mismatched bound accepted")
	}
	if err := m.Add(pred.New(5, "emp", pred.FnClause("age", "nosuchfn"))); err == nil {
		t.Error("Add with unknown function accepted")
	}
	if err := m.Remove(99); err == nil {
		t.Error("Remove of unknown id accepted")
	}
	if err := m.Remove(1); err != nil {
		t.Errorf("Remove: %v", err)
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after removing all", m.Len())
	}
}

func runMultiRelation(t *testing.T, factory Factory) {
	fix := NewFixture()
	m := factory(fix)
	// Same attribute names on different relations must not interfere.
	mustAdd := func(p *pred.Predicate) {
		t.Helper()
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(pred.New(1, "emp", pred.IvClause("salary", interval.AtLeast(value.Int(50)))))
	mustAdd(pred.New(2, "items", pred.IvClause("stock", interval.Less(value.Int(10)))))
	mustAdd(pred.New(3, "emp",
		pred.IvClause("salary", interval.Closed(value.Int(20), value.Int(30))),
		pred.EqClause("dept", value.String_("shoe")),
	))

	empTuple := tuple.New(value.String_("alice"), value.Int(40), value.Int(25), value.String_("shoe"))
	got, err := m.Match("emp", empTuple, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []pred.ID{3}) {
		t.Fatalf("emp match = %v, want [3]", got)
	}

	itemTuple := tuple.New(value.Int(1), value.Int(5), value.Int(10), value.Float(9.5))
	got, err = m.Match("items", itemTuple, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []pred.ID{2}) {
		t.Fatalf("items match = %v, want [2]", got)
	}

	// A relation with no predicates matches nothing.
	evTuple := tuple.New(value.String_("alert"), value.Int(3), value.Bool(true))
	got, err = m.Match("events", evTuple, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("events match = %v, want empty", got)
	}
}

func equalIDs(a, b []pred.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CountingIndex is an attribute index (core.AttrIndex) that only
// counts: the write-cost tests measure how many tree insertions a write
// pays, not what they build. Every index a factory hands out adds to
// the same Inserts.
type CountingIndex struct {
	Inserts *int
	n       int
}

func (c *CountingIndex) Insert(pred.ID, interval.Interval[value.Value]) error {
	*c.Inserts++
	c.n++
	return nil
}
func (c *CountingIndex) Delete(pred.ID) error                            { c.n--; return nil }
func (c *CountingIndex) StabAppend(_ value.Value, d []pred.ID) []pred.ID { return d }
func (c *CountingIndex) Len() int                                        { return c.n }
