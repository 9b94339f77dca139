package prefilter_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"predmatch/internal/core"
	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/prefilter"
	"predmatch/internal/schema"
	"predmatch/internal/seqscan"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

func tup(a, b, c int64) tuple.Tuple {
	return tuple.Tuple{value.Int(a), value.Int(b), value.Int(c)}
}

func TestAdmitEmptyRelation(t *testing.T) {
	if (prefilter.Summary{}).Admit(tup(1, 2, 3)) {
		t.Fatal("the zero summary admitted")
	}
	s := prefilter.Make(3)
	if s.Admit(tup(1, 2, 3)) {
		t.Fatal("a summary of no clause admitted")
	}
	for pos := -1; pos <= 3; pos++ {
		if _, ok := s.Envelope(pos); ok {
			t.Fatalf("a summary of no clause has an envelope at %d", pos)
		}
	}
	// A view holds nothing for a relation it never saw, and for one whose
	// predicates are all gone once a merge has rebuilt it.
	m := newModel(t)
	if m.v.Admit("r", tup(1, 2, 3)) || m.v.Admit("nosuch", tup(1, 2, 3)) {
		t.Fatal("an empty view admitted")
	}
	for id := pred.ID(0); id < 20; id++ {
		m.add(pred.New(id, "r", pred.EqClause("a0", value.Int(1))))
	}
	for id := pred.ID(0); id < 20; id++ {
		m.remove(id)
	}
	before := m.rebuilds
	for id := pred.ID(100); m.rebuilds == before && id < 140; id++ {
		m.add(pred.New(id, "q", pred.EqClause("a0", value.Int(1)))) // grow the overlay until it merges
	}
	if m.rebuilds == before || m.v.Admit("r", tup(1, 2, 3)) || !m.v.Admit("q", tup(1, 2, 3)) {
		t.Fatal("the emptied relation still admits after a rebuild, or its neighbour stopped")
	}
}

func TestAdmitEnvelope(t *testing.T) {
	iv := func(lo, hi int64) interval.Interval[value.Value] {
		return interval.Closed(value.Int(lo), value.Int(hi))
	}
	s := prefilter.Make(3)
	s.Widen(0, iv(10, 20))
	s.Widen(0, iv(40, 50))
	// Inside the envelope [10,50]: admitted (over-admission between the
	// two clause ranges is expected — envelopes are unions).
	for _, a := range []int64{10, 20, 30, 50} {
		if !s.Admit(tup(a, 0, 0)) {
			t.Fatalf("a=%d skipped inside envelope", a)
		}
	}
	for _, a := range []int64{9, 51, -5} {
		if s.Admit(tup(a, 0, 0)) {
			t.Fatalf("a=%d admitted outside envelope", a)
		}
	}
	// A second enveloped attribute widens admission: any single
	// envelope hit admits.
	s.Widen(1, interval.AtLeast(value.Int(100)))
	if !s.Admit(tup(0, 150, 0)) || !s.Admit(tup(0, 100, 0)) {
		t.Fatal("skipped despite b-envelope hit")
	}
	if s.Admit(tup(0, 99, 0)) {
		t.Fatal("admitted with every envelope missed")
	}
	// A tuple too short to carry an enveloped position is never skipped.
	if !s.Admit(tuple.Tuple{value.Int(0)}) {
		t.Fatal("skipped a tuple that lacks an enveloped position")
	}

	// Open bounds widen to closed, infinite ones absorb finite ones, and
	// a union never narrows.
	type env = interval.Interval[value.Value]
	for _, c := range []struct {
		name    string
		widen   []env
		want    env
		in, out []int64
	}{
		{"open", []env{interval.Open(value.Int(10), value.Int(20))}, iv(10, 20), []int64{10, 20}, []int64{9, 21}},
		{"half-open", []env{interval.ClosedOpen(value.Int(1), value.Int(2)), interval.OpenClosed(value.Int(5), value.Int(6))},
			iv(1, 6), []int64{1, 2, 5, 6}, []int64{0, 7}},
		{"less", []env{iv(3, 4), interval.Less(value.Int(0))}, interval.AtMost(value.Int(4)), []int64{-1000, 0, 4}, []int64{5}},
		{"greater first", []env{interval.Greater(value.Int(7)), iv(1, 2)}, interval.AtLeast(value.Int(1)), []int64{1, 7, 1000}, []int64{0}},
		{"both ends", []env{interval.AtMost(value.Int(0)), interval.AtLeast(value.Int(9)), iv(3, 4)}, interval.All[value.Value](),
			[]int64{-1, 5, 10}, nil},
		{"nested", []env{iv(0, 100), iv(40, 60), interval.Point(value.Int(50))}, iv(0, 100), []int64{0, 100}, []int64{-1, 101}},
	} {
		s := prefilter.Make(3)
		for _, w := range c.widen {
			s.Widen(2, w)
		}
		if got, ok := s.Envelope(2); !ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: envelope %v (ok %v), want %v", c.name, got, ok, c.want)
		}
		for _, x := range c.in {
			if !s.Admit(tup(0, 0, x)) {
				t.Errorf("%s: %d skipped", c.name, x)
			}
		}
		for _, x := range c.out {
			if s.Admit(tup(0, 0, x)) {
				t.Errorf("%s: %d admitted", c.name, x)
			}
		}
	}
}

// TestRemoveUnknown: the writes a view refuses leave its summary alone,
// a tombstone carries the base's summary unchanged, and a removal from
// the delta narrows the delta's with the rebuild it already pays.
func TestRemoveUnknown(t *testing.T) {
	m := newModel(t)
	if _, err := m.v.Without(7); err == nil {
		t.Fatal("Without of an unknown id succeeded")
	}
	for id := pred.ID(0); id < 17; id++ { // the 17th add merges
		m.add(pred.New(id, "r", pred.IvClause("a0", interval.Closed(value.Int(int64(id)), value.Int(int64(id)+1)))))
	}
	if m.rebuilds != 1 {
		t.Fatalf("%d rebuilds after 17 adds, want 1", m.rebuilds)
	}
	if _, err := m.v.With(pred.New(3, "r", pred.EqClause("a0", value.Int(500)))); err == nil {
		t.Fatal("duplicate With succeeded")
	}
	if m.v.Admit("r", tup(500, 0, 0)) {
		t.Fatal("a refused predicate widened the summary")
	}
	m.remove(16) // tombstone of the base predicate [16,17]
	if !m.v.Admit("r", tup(17, 0, 0)) {
		t.Fatal("a tombstone narrowed the base's summary; it is shared with earlier views and must not change")
	}
	m.add(pred.New(20, "r", pred.EqClause("a0", value.Int(40))))
	m.add(pred.New(21, "r", pred.EqClause("a0", value.Int(60))))
	m.remove(21)
	if _, delta := m.v.Summaries("r"); !reflect.DeepEqual(envelopes(delta, 3), envelopes(exact(m.cat, "r", []*pred.Predicate{m.live[20]}), 3)) {
		t.Fatalf("delta summary %v after removing a delta predicate, want the one of the predicate left", envelopes(delta, 3))
	}
}

// model drives a View the way a shard does — With or Without, then
// Merged — beside the seqscan oracle and checks the View's admission
// summary after every step.
type model struct {
	t      testing.TB
	cat    *schema.Catalog
	v      *core.View
	oracle *seqscan.Matcher
	live   map[pred.ID]*pred.Predicate
	probes map[string][]tuple.Tuple

	rebuilds int // steps whose Merged rebuilt the base
	skips    int // probes the summary skipped
}

// newModel has two relations of three integer attributes: the tests put
// function-only predicates on "q" only, so "r" can always skip.
func newModel(t testing.TB) *model {
	cat := schema.NewCatalog()
	for _, name := range []string{"r", "q"} {
		if err := cat.Add(schema.MustRelation(name,
			schema.Attribute{Name: "a0", Type: value.KindInt},
			schema.Attribute{Name: "a1", Type: value.KindInt},
			schema.Attribute{Name: "a2", Type: value.KindInt},
		)); err != nil {
			t.Fatal(err)
		}
	}
	funcs := pred.NewRegistry()
	return &model{
		t: t, cat: cat,
		v:      core.NewView(cat, funcs),
		oracle: seqscan.New(cat, funcs),
		live:   map[pred.ID]*pred.Predicate{},
		probes: map[string][]tuple.Tuple{},
	}
}

func (m *model) add(p *pred.Predicate) {
	m.t.Helper()
	next, err := m.v.With(p)
	if err != nil {
		m.t.Fatalf("With(%v): %v", p, err)
	}
	if err := m.oracle.Add(p); err != nil {
		m.t.Fatal(err)
	}
	m.live[p.ID] = p
	m.publish(next)
}

func (m *model) remove(id pred.ID) {
	m.t.Helper()
	next, err := m.v.Without(id)
	if err != nil {
		m.t.Fatalf("Without(%d): %v", id, err)
	}
	if err := m.oracle.Remove(id); err != nil {
		m.t.Fatal(err)
	}
	delete(m.live, id)
	m.publish(next)
}

func (m *model) publish(next *core.View) {
	m.t.Helper()
	m.v = next.Merged()
	rebuilt := m.v != next
	if rebuilt {
		m.rebuilds++
	}
	m.check(rebuilt)
}

// exact is the summary of preds' interval clauses on rel, from scratch.
func exact(cat *schema.Catalog, rel string, preds []*pred.Predicate) prefilter.Summary {
	r, _ := cat.Get(rel)
	s := prefilter.Make(r.Arity())
	for _, p := range preds {
		if p.Rel != rel {
			continue
		}
		for _, c := range p.Clauses {
			if pos, _ := r.AttrIndex(c.Attr); c.Kind == pred.KindInterval {
				s.Widen(pos, c.Iv)
			}
		}
	}
	return s
}

// envelopes lists s's envelope at every position, nil where it has none.
func envelopes(s prefilter.Summary, arity int) []*interval.Interval[value.Value] {
	out := make([]*interval.Interval[value.Value], arity)
	for pos := range out {
		if iv, ok := s.Envelope(pos); ok {
			out[pos] = &iv
		}
	}
	return out
}

// hull returns the convex hull of two widened envelopes, either of
// which may be absent.
func hull(a, b *interval.Interval[value.Value]) *interval.Interval[value.Value] {
	if a == nil || b == nil {
		if a == nil {
			a = b
		}
		return a
	}
	h := *a
	if b.Lo.Kind == interval.NegInf || (h.Lo.Kind == interval.Finite && value.Less(b.Lo.Value, h.Lo.Value)) {
		h.Lo = b.Lo
	}
	if b.Hi.Kind == interval.PosInf || (h.Hi.Kind == interval.Finite && value.Less(h.Hi.Value, b.Hi.Value)) {
		h.Hi = b.Hi
	}
	return &h
}

// check holds the current view against the live set: (a) a tuple the
// summary skips matches no live predicate — and every match equals the
// oracle's; (b) right after a rebuild the summary is the exact one, in
// structure and in every verdict; (c) between rebuilds base and delta
// together cover the exact one.
func (m *model) check(rebuilt bool) {
	m.t.Helper()
	live := make([]*pred.Predicate, 0, len(m.live))
	for _, p := range m.live {
		live = append(live, p)
	}
	for _, rel := range []string{"r", "q"} {
		want := exact(m.cat, rel, live)
		opaque := slices.ContainsFunc(live, func(p *pred.Predicate) bool {
			return p.Rel == rel && !slices.ContainsFunc(p.Clauses, pred.Clause.Indexable)
		})
		base, delta := m.v.Summaries(rel)
		wantEnv, baseEnv, deltaEnv := envelopes(want, 3), envelopes(base, 3), envelopes(delta, 3)
		for pos, w := range wantEnv {
			if h := hull(baseEnv[pos], deltaEnv[pos]); w != nil && (h == nil || !reflect.DeepEqual(hull(h, w), h)) {
				m.t.Fatalf("%s.a%d: base %v and delta %v do not cover the live clauses' envelope %v", rel, pos, baseEnv[pos], deltaEnv[pos], w)
			}
		}
		if rebuilt && !(reflect.DeepEqual(baseEnv, wantEnv) && reflect.DeepEqual(deltaEnv, make([]*interval.Interval[value.Value], 3))) {
			m.t.Fatalf("%s: after a rebuild base %v, delta %v; want exactly %v and nothing", rel, baseEnv, deltaEnv, wantEnv)
		}
		for _, tu := range m.probes[rel] {
			admitted := m.v.Admit(rel, tu)
			got, _ := m.v.Match(rel, tu, nil)
			oracle, _ := m.oracle.Match(rel, tu, nil)
			slices.Sort(got)
			slices.Sort(oracle)
			if !admitted {
				m.skips++
			}
			if !admitted && len(oracle) > 0 {
				m.t.Fatalf("false negative: %s %v skipped, yet it matches %v", rel, tu, oracle)
			}
			if !slices.Equal(got, oracle) {
				m.t.Fatalf("Match(%s, %v) = %v, oracle %v", rel, tu, got, oracle)
			}
			if rebuilt && admitted != (opaque || want.Admit(tu)) {
				m.t.Fatalf("after a rebuild %s %v admitted = %v; the exact summary says %v", rel, tu, admitted, !admitted)
			}
		}
	}
}

// stash is a view put aside with the verdicts and envelopes it gave.
type stash struct {
	v        *core.View
	admitted map[string][]bool
	env      map[string][2][]*interval.Interval[value.Value]
}

func (m *model) stash() stash {
	s := stash{v: m.v, admitted: map[string][]bool{}, env: map[string][2][]*interval.Interval[value.Value]{}}
	for rel, tups := range m.probes {
		for _, tu := range tups {
			s.admitted[rel] = append(s.admitted[rel], m.v.Admit(rel, tu))
		}
		base, delta := m.v.Summaries(rel)
		s.env[rel] = [2][]*interval.Interval[value.Value]{envelopes(base, 3), envelopes(delta, 3)}
	}
	return s
}

// recheck fails if a stashed view's summary has changed under the
// writes made since.
func (m *model) recheck(s stash) {
	m.t.Helper()
	for rel, tups := range m.probes {
		for i, tu := range tups {
			if s.v.Admit(rel, tu) != s.admitted[rel][i] {
				m.t.Fatalf("a stashed view changed its verdict on %s %v", rel, tu)
			}
		}
		base, delta := s.v.Summaries(rel)
		if got := [2][]*interval.Interval[value.Value]{envelopes(base, 3), envelopes(delta, 3)}; !reflect.DeepEqual(got, s.env[rel]) {
			m.t.Fatalf("a stashed view's summary of %s changed: %v, was %v", rel, got, s.env[rel])
		}
	}
}

// randomClause draws an interval clause inside [0,100) or, one time in
// five when fn is set, a function clause.
func randomClause(rng *rand.Rand, fn bool) pred.Clause {
	attr := fmt.Sprintf("a%d", rng.Intn(3))
	if fn && rng.Intn(5) == 0 {
		return pred.FnClause(attr, []string{"isodd", "iseven", "ispositive"}[rng.Intn(3)])
	}
	lo := int64(rng.Intn(90))
	hi := lo + 1 + int64(rng.Intn(10))
	switch rng.Intn(8) {
	case 0:
		return pred.EqClause(attr, value.Int(lo))
	case 1:
		return pred.IvClause(attr, interval.Open(value.Int(lo), value.Int(hi)))
	case 2:
		if rng.Intn(8) == 0 {
			return pred.IvClause(attr, interval.Less(value.Int(lo)))
		}
		return pred.IvClause(attr, interval.ClosedOpen(value.Int(lo), value.Int(hi)))
	default:
		return pred.IvClause(attr, interval.Closed(value.Int(lo), value.Int(hi)))
	}
}

// TestNoFalseNegativesRandom runs 3,000 random writes — adds, removes
// reaching into base and delta, re-adds of removed IDs under a new
// predicate — across dozens of merges, checking the view's summary
// after each and every stashed view's at the end.
func TestNoFalseNegativesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := newModel(t)
	for _, rel := range []string{"r", "q"} {
		for i := 0; i < 24; i++ { // a third inside the clauses' domain
			m.probes[rel] = append(m.probes[rel], tup(int64(rng.Intn(300)-100), int64(rng.Intn(300)-100), int64(rng.Intn(300)-100)))
		}
	}
	var (
		ids, freed []pred.ID
		nextID     pred.ID
		stashes    []stash
		reAdds     int
	)
	for step := 0; step < 3000; step++ {
		// The population swings between about 10 and 60 predicates so
		// that envelopes narrow as well as widen.
		grow := len(ids) < 10 || (len(ids) < 60 && (step/150)%2 == 0)
		if grow && rng.Intn(4) > 0 || len(ids) == 0 {
			id := nextID
			if len(freed) > 0 && rng.Intn(3) == 0 {
				id, freed = freed[len(freed)-1], freed[:len(freed)-1]
				reAdds++
			} else {
				nextID++
			}
			rel := []string{"r", "q"}[rng.Intn(2)]
			clauses := []pred.Clause{randomClause(rng, rel == "q")}
			if rng.Intn(2) == 0 {
				clauses = append(clauses, randomClause(rng, rel == "q"))
			}
			m.add(pred.New(id, rel, clauses...))
			ids = append(ids, id)
		} else {
			j := rng.Intn(len(ids))
			if rng.Intn(2) == 0 { // recent IDs sit in the delta
				j = len(ids) - 1 - rng.Intn(min(len(ids), 6))
			}
			m.remove(ids[j])
			freed = append(freed, ids[j])
			ids = slices.Delete(ids, j, j+1)
		}
		if step%100 == 0 {
			stashes = append(stashes, m.stash())
		}
	}
	for _, s := range stashes {
		m.recheck(s)
	}
	t.Logf("%d rebuilds, %d re-added IDs, %d of %d probes skipped", m.rebuilds, reAdds, m.skips, 3000*48)
	if m.rebuilds < 20 || reAdds < 20 || m.skips < 3000 {
		t.Fatal("the run did not cross enough merges, re-adds or skips to mean anything")
	}
}

// FuzzPrefilter drives random add/remove/re-add/probe interleavings
// through a View; the only fatal bug is a false negative — a skipped
// tuple that some live predicate matches — and model.check also holds
// the summary to exact after a rebuild and covering between them. Each
// op is 4 bytes: opcode, attr/selector, lo, hi.
func FuzzPrefilter(f *testing.F) {
	f.Add([]byte{0, 0, 10, 20, 2, 0, 15, 0, 2, 0, 25, 0})
	f.Add([]byte{0, 1, 5, 5, 1, 0, 0, 0, 2, 1, 5, 0})
	f.Add([]byte{3, 2, 0, 0, 2, 0, 7, 0, 1, 0, 0, 0, 2, 0, 7, 0})
	f.Add([]byte{0, 0, 0, 39, 0, 1, 10, 11, 2, 2, 30, 0, 2, 1, 10, 0})
	// Twenty adds cross a merge; removing the widest ones and re-adding
	// one of their IDs narrower crosses the next.
	var long []byte
	for i := byte(0); i < 20; i++ {
		long = append(long, 0, i, i, i+5)
	}
	for i := byte(0); i < 18; i++ {
		long = append(long, 1, i, i, 0, 2, 0, 3*i, i)
	}
	long = append(long, 4, 0, 7, 7, 5, 1, 3, 9, 2, 0, 8, 8)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newModel(t)
		var order, freed []pred.ID
		next := pred.ID(1)
		for i := 0; i+3 < len(data) && i < 4*200; i += 4 {
			op, sel := data[i], data[i+1]
			lo, hi := int64(data[i+2]%40), int64(data[i+3]%40)
			if lo > hi {
				lo, hi = hi, lo
			}
			attr := fmt.Sprintf("a%d", sel%3)
			var iv interval.Interval[value.Value]
			switch data[i+3] % 4 {
			case 0:
				iv = interval.Closed(value.Int(lo), value.Int(hi))
			case 1:
				iv = interval.Point(value.Int(lo))
			case 2:
				iv = interval.AtMost(value.Int(hi))
			default:
				iv = interval.Greater(value.Int(lo))
			}
			id := next
			switch op % 6 {
			case 0: // add an interval predicate
				m.add(pred.New(id, "r", pred.IvClause(attr, iv)))
			case 3: // add an opaque function predicate
				m.add(pred.New(id, "q", pred.FnClause(attr, "isodd")))
			case 4: // re-add a removed ID under a mixed predicate
				if len(freed) == 0 {
					continue
				}
				id, freed = freed[len(freed)-1], freed[:len(freed)-1]
				m.add(pred.New(id, []string{"r", "q"}[sel%2], pred.IvClause(attr, iv), pred.FnClause("a0", "iseven")))
			case 5: // add an interval predicate beside the opaque ones
				m.add(pred.New(id, "q", pred.IvClause(attr, iv)))
			case 1: // remove a live predicate
				if len(order) == 0 {
					continue
				}
				j := (int(sel)*31 + int(lo)) % len(order)
				m.remove(order[j])
				freed = append(freed, order[j])
				order = slices.Delete(order, j, j+1)
				continue
			default: // probe: the next checks run over these tuples too
				tu := tuple.Tuple{value.Int(lo), value.Int(hi), value.Int(int64(sel) % 40)}
				for _, rel := range []string{"r", "q"} {
					m.probes[rel] = append(m.probes[rel], tu)
				}
				m.check(false)
				continue
			}
			order = append(order, id)
			if id == next {
				next++
			}
		}
	})
}
