// Package repro's benchmark suite maps one testing.B benchmark onto each
// evaluation artifact of Hanson et al., SIGMOD 1990 (see DESIGN.md's
// experiment index and EXPERIMENTS.md for the paper-vs-measured record):
//
//	BenchmarkFig7Insert               — Figure 7 (IBS insertion vs N, a)
//	BenchmarkFig8Search               — Figure 8 (IBS stabbing vs N, a)
//	BenchmarkFig9Match                — Figure 9 (IBS scheme vs sequential)
//	BenchmarkCostModelScenario        — Section 5.2 scenario, end to end
//	BenchmarkMarkerSpace              — Section 5.1 space (markers metric)
//	BenchmarkBalanceAblation          — Section 4.3 balanced vs unbalanced
//	BenchmarkIntervalIndexComparison  — Section 6 future-work comparison
//	BenchmarkMatcherStrategies        — Section 2 strategy shoot-out
//	BenchmarkMarkSetRepresentation    — mark sets: sorted slice vs AVL
//	BenchmarkJoinNetwork              — Section 6 two-layer join network
//	BenchmarkSchemeIndexAblation      — scheme over IBS-trees vs skip lists
//	BenchmarkServingIndexSweep        — sharded layer per -index structure, three stab/write mixes
//
// Run everything with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"predmatch/internal/augtree"
	"predmatch/internal/core"
	"predmatch/internal/hashseq"
	"predmatch/internal/hint"
	"predmatch/internal/ibs"
	"predmatch/internal/interval"
	"predmatch/internal/islist"
	"predmatch/internal/ivindex"
	"predmatch/internal/join"
	"predmatch/internal/markset"
	"predmatch/internal/matcher"
	"predmatch/internal/phylock"
	"predmatch/internal/pred"
	"predmatch/internal/pst"
	"predmatch/internal/rtree"
	"predmatch/internal/schema"
	"predmatch/internal/selectivity"
	"predmatch/internal/seqscan"
	"predmatch/internal/shard"
	"predmatch/internal/storage"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
	"predmatch/internal/workload"
)

var benchSizes = []int{100, 500, 1000}
var pointFracs = []float64{0, 0.5, 1}

// BenchmarkFig7Insert builds an unbalanced IBS-tree (the paper's
// measured configuration) from the Section 5.2 workload; each benchmark
// op is one full N-interval build, and ns/insert is reported as a metric.
func BenchmarkFig7Insert(b *testing.B) {
	for _, a := range pointFracs {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("a=%v/N=%d", a, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1990))
				ivs := workload.Intervals(rng, n, a)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tree := ibs.New(ivindex.Int64Cmp, ibs.Balanced(false))
					for j, iv := range ivs {
						if err := tree.Insert(markset.ID(j), iv); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/insert")
			})
		}
	}
}

// BenchmarkFig8Search stabs pre-built IBS-trees with uniform points.
func BenchmarkFig8Search(b *testing.B) {
	for _, a := range pointFracs {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("a=%v/N=%d", a, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1990))
				tree := ibs.New(ivindex.Int64Cmp, ibs.Balanced(false))
				for j, iv := range workload.Intervals(rng, n, a) {
					if err := tree.Insert(markset.ID(j), iv); err != nil {
						b.Fatal(err)
					}
				}
				points := workload.StabPoints(rng, 4096)
				var buf []markset.ID
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = tree.StabAppend(points[i%len(points)], buf[:0])
				}
			})
		}
	}
}

// BenchmarkFig9Match compares per-tuple whole-scheme matching between
// the IBS-tree index and the sequential list at the paper's small N.
func BenchmarkFig9Match(b *testing.B) {
	for _, n := range []int{5, 20, 40} {
		cat := schema.NewCatalog()
		rel := schema.MustRelation(fmt.Sprintf("r%d", n), schema.Attribute{Name: "attr", Type: value.KindInt})
		if err := cat.Add(rel); err != nil {
			b.Fatal(err)
		}
		funcs := pred.NewRegistry()
		rng := rand.New(rand.NewSource(1990))
		preds := workload.SingleAttrPreds(rng, rel.Name(), "attr", n, 0.5)
		points := workload.StabPoints(rng, 4096)
		tuples := make([]tuple.Tuple, len(points))
		for i, x := range points {
			tuples[i] = tuple.New(value.Int(x))
		}
		for name, m := range map[string]matcher.Matcher{
			"ibs": core.New(cat, funcs, core.WithTreeOptions(ibs.Balanced(false))),
			"seq": seqscan.New(cat, funcs),
		} {
			for _, p := range preds {
				if err := m.Add(p); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("%s/N=%d", name, n), func(b *testing.B) {
				var buf []pred.ID
				for i := 0; i < b.N; i++ {
					buf, _ = m.Match(rel.Name(), tuples[i%len(tuples)], buf[:0])
				}
			})
		}
	}
}

// BenchmarkCostModelScenario measures the Section 5.2 scenario end to
// end: 200 predicates, 15 attributes, 1/3 used, 90% indexable.
func BenchmarkCostModelScenario(b *testing.B) {
	rng := rand.New(rand.NewSource(1990))
	pop, err := workload.PaperScenario().Build(rng)
	if err != nil {
		b.Fatal(err)
	}
	ix := core.New(pop.Catalog, pop.Funcs, core.WithEstimator(selectivity.Static{}))
	for _, p := range pop.Preds {
		if err := ix.Add(p); err != nil {
			b.Fatal(err)
		}
	}
	rel := pop.Rels[0]
	tuples := make([]tuple.Tuple, 4096)
	for i := range tuples {
		tuples[i] = pop.Tuple(rng, rel)
	}
	var buf []pred.ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = ix.Match(rel.Name(), tuples[i%len(tuples)], buf[:0])
	}
}

// BenchmarkMarkerSpace reports the Section 5.1 marker counts per
// interval as metrics (the "time" of this benchmark is irrelevant).
func BenchmarkMarkerSpace(b *testing.B) {
	regimes := map[string]func(int) []interval.Interval[int64]{
		"disjoint": workload.DisjointIntervals,
		"nested":   workload.NestedIntervals,
		"random": func(n int) []interval.Interval[int64] {
			return workload.Intervals(rand.New(rand.NewSource(1990)), n, 0)
		},
	}
	for name, gen := range regimes {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", name, n), func(b *testing.B) {
				var markers int
				for i := 0; i < b.N; i++ {
					tree := ibs.New(ivindex.Int64Cmp, ibs.Balanced(true))
					for j, iv := range gen(n) {
						if err := tree.Insert(markset.ID(j), iv); err != nil {
							b.Fatal(err)
						}
					}
					markers = tree.MarkerCount()
				}
				b.ReportMetric(float64(markers)/float64(n), "markers/interval")
			})
		}
	}
}

// BenchmarkBalanceAblation measures stabbing cost under sorted
// (adversarial) insertion order with and without AVL balancing.
func BenchmarkBalanceAblation(b *testing.B) {
	const n = 2000
	ivs := workload.DisjointIntervals(n)
	for _, balanced := range []bool{true, false} {
		name := "balanced"
		if !balanced {
			name = "unbalanced"
		}
		b.Run(name, func(b *testing.B) {
			tree := ibs.New(ivindex.Int64Cmp, ibs.Balanced(balanced))
			for j, iv := range ivs {
				if err := tree.Insert(markset.ID(j), iv); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(7))
			points := make([]int64, 4096)
			for i := range points {
				points[i] = rng.Int63n(n * 20)
			}
			var buf []markset.ID
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tree.StabAppend(points[i%len(points)], buf[:0])
			}
			b.ReportMetric(float64(tree.Height()), "height")
		})
	}
}

// ivIndexUnderTest adapts each dynamic interval index for the
// Section 6 comparison benchmark.
func ivIndexesUnderTest() map[string]func() ivindex.Index {
	return map[string]func() ivindex.Index{
		"ibs-balanced": func() ivindex.Index {
			return benchIvWrap{ibs.New(ivindex.Int64Cmp, ibs.Balanced(true)), "ibs-balanced"}
		},
		"ibs-unbalanced": func() ivindex.Index {
			return benchIvWrap{ibs.New(ivindex.Int64Cmp, ibs.Balanced(false)), "ibs-unbalanced"}
		},
		"islist":   func() ivindex.Index { return benchIslWrap{islist.New(ivindex.Int64Cmp)} },
		"hint":     func() ivindex.Index { return benchHintWrap{hint.New(ivindex.Int64Cmp)} },
		"pst":      func() ivindex.Index { return benchPstWrap{pst.New(ivindex.Int64Cmp)} },
		"augtree":  func() ivindex.Index { return benchAugWrap{augtree.New(ivindex.Int64Cmp)} },
		"rtree-1d": func() ivindex.Index { return rtree.NewInterval1D() },
	}
}

type benchIvWrap struct {
	*ibs.Tree[int64]
	name string
}

func (w benchIvWrap) Name() string { return w.name }

type benchIslWrap struct{ *islist.List[int64] }

func (benchIslWrap) Name() string { return "islist" }

type benchHintWrap struct{ *hint.Index[int64] }

func (benchHintWrap) Name() string { return "hint" }

type benchPstWrap struct{ *pst.Tree[int64] }

func (benchPstWrap) Name() string { return "pst" }

type benchAugWrap struct{ *augtree.Tree[int64] }

func (benchAugWrap) Name() string { return "augtree" }

// BenchmarkIntervalIndexComparison sweeps insert/stab/delete across the
// dynamic interval indexes on the paper's a=0.5 workload.
func BenchmarkIntervalIndexComparison(b *testing.B) {
	const n = 1000
	rng := rand.New(rand.NewSource(1990))
	ivs := workload.Intervals(rng, n, 0.5)
	points := workload.StabPoints(rng, 4096)
	for name, mk := range ivIndexesUnderTest() {
		b.Run(name+"/insert", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := mk()
				for j, iv := range ivs {
					if err := ix.Insert(markset.ID(j), iv); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/insert")
		})
		b.Run(name+"/stab", func(b *testing.B) {
			ix := mk()
			for j, iv := range ivs {
				if err := ix.Insert(markset.ID(j), iv); err != nil {
					b.Fatal(err)
				}
			}
			var buf []markset.ID
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ix.StabAppend(points[i%len(points)], buf[:0])
			}
		})
		b.Run(name+"/delete", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix := mk()
				for j, iv := range ivs {
					if err := ix.Insert(markset.ID(j), iv); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for j := 0; j < n; j++ {
					if err := ix.Delete(markset.ID(j)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/delete")
		})
	}
}

// BenchmarkMatcherStrategies sweeps the whole-scheme strategies over a
// multi-relation population (the Section 2 baselines and the IBS scheme).
func BenchmarkMatcherStrategies(b *testing.B) {
	rng := rand.New(rand.NewSource(1990))
	spec := workload.SchemaSpec{
		Relations:     4,
		AttrsPerRel:   15,
		UsedAttrFrac:  1.0 / 3.0,
		PredsPerRel:   200,
		ClausesPer:    2,
		IndexableFrac: 0.9,
		PointFrac:     0.5,
	}
	pop, err := spec.Build(rng)
	if err != nil {
		b.Fatal(err)
	}
	tuples := make([]tuple.Tuple, 4096)
	rels := make([]string, len(tuples))
	for i := range tuples {
		rel := pop.Rels[i%len(pop.Rels)]
		rels[i] = rel.Name()
		tuples[i] = pop.Tuple(rng, rel)
	}

	strategies := map[string]func() matcher.Matcher{
		"seqscan": func() matcher.Matcher { return seqscan.New(pop.Catalog, pop.Funcs) },
		"hashseq": func() matcher.Matcher { return hashseq.New(pop.Catalog, pop.Funcs) },
		"rtree":   func() matcher.Matcher { return rtree.NewPredMatcher(pop.Catalog, pop.Funcs) },
		"ibs": func() matcher.Matcher {
			return core.New(pop.Catalog, pop.Funcs, core.WithEstimator(selectivity.Static{}))
		},
		"hint": func() matcher.Matcher {
			return core.New(pop.Catalog, pop.Funcs,
				core.WithIndexFactory(func() core.AttrIndex {
					return hint.New(value.Compare)
				}),
				core.WithName("hint"))
		},
		"sharded": func() matcher.Matcher {
			return shard.New(pop.Catalog, pop.Funcs)
		},
		"phylock-noidx": func() matcher.Matcher {
			db := storage.NewDB()
			for _, rel := range pop.Rels {
				if _, err := db.CreateRelation(rel); err != nil {
					b.Fatal(err)
				}
			}
			return phylock.New(db, pop.Funcs)
		},
		"phylock-idx": func() matcher.Matcher {
			db := storage.NewDB()
			for _, rel := range pop.Rels {
				tab, err := db.CreateRelation(rel)
				if err != nil {
					b.Fatal(err)
				}
				for a := 0; a < 5; a++ {
					if err := tab.CreateIndex(rel.Attrs()[a].Name); err != nil {
						b.Fatal(err)
					}
				}
			}
			return phylock.New(db, pop.Funcs)
		},
	}
	for name, mk := range strategies {
		b.Run(name, func(b *testing.B) {
			m := mk()
			for _, p := range pop.Preds {
				if err := m.Add(p); err != nil {
					b.Fatal(err)
				}
			}
			var buf []pred.ID
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(tuples)
				buf, _ = m.Match(rels[j], tuples[j], buf[:0])
			}
		})
	}
}

// BenchmarkMarkSetRepresentation is the DESIGN.md ablation on mark-set
// storage: sorted slices versus the AVL sets the paper's O(log^2 N)
// analysis assumes.
func BenchmarkMarkSetRepresentation(b *testing.B) {
	factories := map[string]markset.Factory{
		"slice": markset.NewSlice,
		"avl":   markset.NewAVL,
	}
	rng := rand.New(rand.NewSource(1990))
	ivs := workload.Intervals(rng, 1000, 0.5)
	points := workload.StabPoints(rng, 4096)
	for name, f := range factories {
		b.Run(name+"/insert", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree := ibs.New(ivindex.Int64Cmp, ibs.MarkSets(f))
				for j, iv := range ivs {
					if err := tree.Insert(markset.ID(j), iv); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(name+"/stab", func(b *testing.B) {
			tree := ibs.New(ivindex.Int64Cmp, ibs.MarkSets(f))
			for j, iv := range ivs {
				if err := tree.Insert(markset.ID(j), iv); err != nil {
					b.Fatal(err)
				}
			}
			var buf []markset.ID
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tree.StabAppend(points[i%len(points)], buf[:0])
			}
		})
	}
}

// BenchmarkJoinNetwork measures the two-layer discrimination network:
// per-tuple cost of routing an insert through the selection layer and
// the TREAT join layer, with alpha memories pre-populated.
func BenchmarkJoinNetwork(b *testing.B) {
	cat := schema.NewCatalog()
	emp := schema.MustRelation("emp",
		schema.Attribute{Name: "dept", Type: value.KindInt},
		schema.Attribute{Name: "salary", Type: value.KindInt},
	)
	dept := schema.MustRelation("dept",
		schema.Attribute{Name: "did", Type: value.KindInt},
		schema.Attribute{Name: "budget", Type: value.KindInt},
	)
	if err := cat.Add(emp); err != nil {
		b.Fatal(err)
	}
	if err := cat.Add(dept); err != nil {
		b.Fatal(err)
	}
	funcs := pred.NewRegistry()
	activations := 0
	net := join.New(cat, funcs, func(join.Activation) { activations++ })
	for r := 0; r < 20; r++ {
		rule := &join.Rule{
			ID: join.RuleID(r),
			Sides: []join.Side{
				{Rel: "emp", Pred: pred.New(0, "emp",
					pred.IvClause("salary", interval.AtLeast(value.Int(int64(r*500)))))},
				{Rel: "dept", Pred: pred.New(0, "dept",
					pred.IvClause("budget", interval.AtMost(value.Int(int64(100000-r*1000)))))},
			},
			Conditions: []join.Condition{{Left: 0, LeftAttr: "dept", Right: 1, RightAttr: "did"}},
		}
		if err := net.AddRule(rule); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1990))
	// Populate departments.
	for d := int64(0); d < 200; d++ {
		if err := net.Insert("dept", tuple.ID(d+1),
			tuple.New(value.Int(d), value.Int(rng.Int63n(200000)))); err != nil {
			b.Fatal(err)
		}
	}
	tuples := make([]tuple.Tuple, 1024)
	for i := range tuples {
		tuples[i] = tuple.New(value.Int(rng.Int63n(200)), value.Int(rng.Int63n(12000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tuple.ID(1000 + i)
		if err := net.Insert("emp", id, tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
		net.Delete("emp", id) // keep memories bounded across iterations
	}
	b.ReportMetric(float64(activations)/float64(b.N), "activations/op")
}

// BenchmarkSchemeIndexAblation compares the whole Figure-1 scheme with
// its per-attribute interval index swapped: IBS-trees (the paper's
// structure) versus interval skip lists (Hanson's successor) versus the
// flat HINT partition index, on the Section 5.2 scenario. The loop is
// pure stabbing; EXPERIMENTS.md's Section 6 entry records the result.
func BenchmarkSchemeIndexAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(1990))
	pop, err := workload.PaperScenario().Build(rng)
	if err != nil {
		b.Fatal(err)
	}
	variants := map[string]func() matcher.Matcher{
		"ibs-trees": func() matcher.Matcher {
			return core.New(pop.Catalog, pop.Funcs)
		},
		"interval-skip-lists": func() matcher.Matcher {
			return core.New(pop.Catalog, pop.Funcs,
				core.WithIndexFactory(func() core.AttrIndex {
					return islist.New(value.Compare)
				}))
		},
		"hint": func() matcher.Matcher {
			return core.New(pop.Catalog, pop.Funcs,
				core.WithIndexFactory(func() core.AttrIndex {
					return hint.New(value.Compare)
				}))
		},
	}
	rel := pop.Rels[0]
	tuples := make([]tuple.Tuple, 4096)
	for i := range tuples {
		tuples[i] = pop.Tuple(rng, rel)
	}
	for name, mk := range variants {
		b.Run(name, func(b *testing.B) {
			m := mk()
			for _, p := range pop.Preds {
				if err := m.Add(p); err != nil {
					b.Fatal(err)
				}
			}
			var buf []pred.ID
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = m.Match(rel.Name(), tuples[i%len(tuples)], buf[:0])
			}
		})
	}
}

// BenchmarkServingIndexSweep is the three-cell sweep docs/MATCHERS.md
// ("Choosing -index") records: the sharded serving layer over 512
// standing predicates of one relation, with the two structures
// `predmatchd -index` offers and islist, which it no longer serves,
// under three stab/write mixes. A churn op adds a transient predicate
// and removes it again (two published views); the rest are match
// probes.
func BenchmarkServingIndexSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(1990))
	pop, err := workload.SchemaSpec{
		Relations: 1, AttrsPerRel: 15, UsedAttrFrac: 1.0 / 3.0,
		PredsPerRel: 512, ClausesPer: 2, IndexableFrac: 0.9, PointFrac: 0.5,
	}.Build(rng)
	if err != nil {
		b.Fatal(err)
	}
	rel := pop.Rels[0].Name()
	tuples := make([]tuple.Tuple, 4096)
	for i := range tuples {
		tuples[i] = pop.Tuple(rng, pop.Rels[0])
	}
	factories := []struct {
		name string
		mk   core.IndexFactory
	}{
		{"ibs", func() core.AttrIndex { return ibs.New(value.Compare) }},
		{"islist", func() core.AttrIndex { return islist.New(value.Compare) }},
		{"hint", func() core.AttrIndex { return hint.New(value.Compare) }},
	}
	for _, cell := range []struct {
		name     string
		churnPct int
	}{{"stab-heavy", 0}, {"mixed", 30}, {"churn-heavy", 70}} {
		for _, f := range factories {
			b.Run(cell.name+"/"+f.name, func(b *testing.B) {
				m := shard.New(pop.Catalog, pop.Funcs, shard.WithIndexOptions(core.WithIndexFactory(f.mk)))
				for _, p := range pop.Preds {
					if err := m.Add(p); err != nil {
						b.Fatal(err)
					}
				}
				var buf []pred.ID
				run := func(from, to int) {
					for i := from; i < to; i++ {
						if i%100 >= cell.churnPct {
							buf, _ = m.Match(rel, tuples[i%len(tuples)], buf[:0])
							continue
						}
						lo := int64(workload.DomainMin + (i*37)%workload.DomainMax)
						p := pred.New(pred.ID(1<<20+i%1024), rel,
							pred.IvClause("a00", interval.Closed(value.Int(lo), value.Int(lo+200))))
						if err := m.Add(p); err != nil {
							b.Fatal(err)
						}
						if err := m.Remove(p.ID); err != nil {
							b.Fatal(err)
						}
					}
				}
				run(0, 1000) // warm-up: lazily built structures fault in
				b.ResetTimer()
				run(1000, 1000+b.N)
			})
		}
	}
}
