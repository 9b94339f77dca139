package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"

	"predmatch/internal/interval"
	"predmatch/internal/pred"
	"predmatch/internal/seqscan"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/workload"
)

const (
	poolPerRel  = 4096 // distinct tuples per relation; ops index into the pool
	serialAttr  = 14   // a14: outside the used-attribute prefix, so no predicate reads it
	churnPerRel = 256  // churn predicates generated per relation; writers cycle through them
	churnIDBase = 1 << 20
)

// spec is the paper's Section 5.2 scenario scaled to 4 relations of
// predsPerRel predicates each.
func spec(predsPerRel int) workload.SchemaSpec {
	return workload.SchemaSpec{
		Relations: 4, AttrsPerRel: 15, UsedAttrFrac: 1.0 / 3.0,
		PredsPerRel: predsPerRel, ClausesPer: 2, IndexableFrac: 0.9, PointFrac: 0.5,
	}
}

// inputs is everything generated from the seed: the program under
// test only ever sees these values.
type inputs struct {
	pop    *workload.Population
	rels   []string
	relIdx map[string]int
	pool   [][]tuple.Tuple // [rel][k]
	want   [][][]pred.ID   // [rel][k]: the oracle's matches, as population IDs
	rng    *rand.Rand      // continues the seed's stream for the op generators
	hash   hash.Hash64     // digest of every generated input

	// ingest: rule sources rendered from a second population of half
	// the size, and how many of them fire on each pooled tuple.
	rules []string
	fires [][]int // [rel][k]
	// churn and embedded: predicates added and removed beside the
	// standing population.
	churn []*pred.Predicate
}

// populationSeed draws the standing predicates and the rules. It is a
// constant, not -seed: how much work a match or an insert does is a
// property of the population's shape (the non-indexable list is
// binomial, 50±7 per relation; fired rules per insert ran 4.9 to 7.0
// over seeds 1-10, allocations per insert 569 to 760), and a metric
// that moves a third with the seed cannot hold a 10% bound. The seed
// draws what a database's traffic varies: the tuples, the order and mix
// of operations, and the predicates written beside the standing ones.
const populationSeed = 1990

// newInputs builds the population, the tuple pools and the seqscan
// oracle's answer for every pooled tuple.
func newInputs(seed int64, predsPerRel int) (*inputs, error) {
	popRng := rand.New(rand.NewSource(populationSeed))
	pop, err := spec(predsPerRel).Build(popRng)
	if err != nil {
		return nil, fmt.Errorf("build population: %w", err)
	}
	rulePop, err := spec(predsPerRel / 2).Build(popRng)
	if err != nil {
		return nil, fmt.Errorf("build rule population: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	churnPop, err := spec(churnPerRel).Build(rng)
	if err != nil {
		return nil, fmt.Errorf("build churn population: %w", err)
	}
	in := &inputs{pop: pop, rng: rng, hash: fnv.New64a(), relIdx: map[string]int{}}
	for i, p := range churnPop.Preds {
		// Own ID range: in process the matcher keeps the caller's IDs.
		in.churn = append(in.churn, pred.New(churnIDBase+pred.ID(i), p.Rel, p.Clauses...))
	}
	// Interleave the churn predicates by relation, so consecutive
	// writes hit different shards as they would from many rule authors.
	rng.Shuffle(len(in.churn), func(i, j int) { in.churn[i], in.churn[j] = in.churn[j], in.churn[i] })
	oracle := seqscan.New(pop.Catalog, pop.Funcs)
	ruleOracle := seqscan.New(rulePop.Catalog, rulePop.Funcs)
	for _, p := range pop.Preds {
		if err := oracle.Add(p); err != nil {
			return nil, fmt.Errorf("oracle add: %w", err)
		}
		fmt.Fprintln(in.hash, p)
	}
	for i, p := range rulePop.Preds {
		if err := ruleOracle.Add(p); err != nil {
			return nil, fmt.Errorf("rule oracle add: %w", err)
		}
		src, err := ruleSource(fmt.Sprintf("r%04d", i), p)
		if err != nil {
			return nil, err
		}
		in.rules = append(in.rules, src)
		fmt.Fprintln(in.hash, src)
	}
	for _, p := range in.churn {
		fmt.Fprintln(in.hash, p)
	}
	for r, rel := range pop.Rels {
		in.rels = append(in.rels, rel.Name())
		in.relIdx[rel.Name()] = r
		pool := make([]tuple.Tuple, poolPerRel)
		want := make([][]pred.ID, poolPerRel)
		fires := make([]int, poolPerRel)
		for k := range pool {
			pool[k] = pop.Tuple(rng, rel)
			pool[k][serialAttr] = value.Int(0)
			ids, err := oracle.Match(rel.Name(), pool[k], nil)
			if err != nil {
				return nil, fmt.Errorf("oracle match: %w", err)
			}
			want[k] = ids
			fired, err := ruleOracle.Match(rel.Name(), pool[k], nil)
			if err != nil {
				return nil, fmt.Errorf("rule oracle match: %w", err)
			}
			fires[k] = len(fired)
			fmt.Fprintln(in.hash, pool[k])
		}
		in.pool = append(in.pool, pool)
		in.want = append(in.want, want)
		in.fires = append(in.fires, fires)
	}
	return in, nil
}

// opCodes draws n (relation, pool index) pairs, packed rel<<16|k, and
// folds them into the digest.
func (in *inputs) opCodes(n int) []uint32 {
	out := make([]uint32, n)
	var b [4]byte
	for i := range out {
		c := uint32(in.rng.Intn(len(in.rels)))<<16 | uint32(in.rng.Intn(poolPerRel))
		out[i] = c
		b[0], b[1], b[2], b[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		in.hash.Write(b[:])
	}
	return out
}

func unpack(c uint32) (rel, k int) { return int(c >> 16), int(c & 0xffff) }

// digest is the hash of every input generated so far, cut to 48 bits so
// it survives a float64.
func (in *inputs) digest() uint64 { return in.hash.Sum64() & (1<<48 - 1) }

// sameSet reports whether got, restricted to IDs for which keep is
// true, is exactly want translated through xlat (population ID - 1 →
// the ID the program assigned).
func sameSet(got []pred.ID, want []pred.ID, xlat []pred.ID, keep func(pred.ID) bool) bool {
	n := 0
	for _, id := range got {
		if keep == nil || keep(id) {
			n++
		}
	}
	if n != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, id := range got {
			if id == xlat[w-1] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// identityIDs is xlat where the matcher keeps the population's IDs.
func identityIDs(n int) []pred.ID {
	x := make([]pred.ID, n)
	for i := range x {
		x[i] = pred.ID(i + 1)
	}
	return x
}

// ruleSource renders p as a rule firing on every mutation of its
// relation; the condition is p's conjunction in the rule grammar.
func ruleSource(name string, p *pred.Predicate) (string, error) {
	var conds []string
	for _, c := range p.Clauses {
		switch {
		case c.Kind == pred.KindFunc:
			conds = append(conds, fmt.Sprintf("%s(%s)", c.Func, c.Attr))
		case c.Iv.IsPoint(value.Compare):
			conds = append(conds, fmt.Sprintf("%s = %d", c.Attr, c.Iv.Lo.Value.AsInt()))
		case c.Iv.Lo.Kind == interval.Finite && c.Iv.Lo.Closed && c.Iv.Hi.Kind == interval.Finite && c.Iv.Hi.Closed:
			conds = append(conds, fmt.Sprintf("%s between %d and %d", c.Attr, c.Iv.Lo.Value.AsInt(), c.Iv.Hi.Value.AsInt()))
		default:
			return "", fmt.Errorf("clause %v has no rule-grammar rendering", c)
		}
	}
	return fmt.Sprintf("rule %s on insert, update, delete to %s when %s do log 'fired'",
		name, p.Rel, strings.Join(conds, " and ")), nil
}
