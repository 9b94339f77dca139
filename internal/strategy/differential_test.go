package strategy_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/strategy"
	"predmatch/internal/tuple"
	"predmatch/internal/workload"
)

// sweepSpec is one cell of the workload generator matrix.
type sweepSpec struct {
	name string
	spec workload.SchemaSpec
	seed int64
}

// sweepMatrix spans the paper's Section 5.2 axes: point fraction
// (Figures 7/8), indexable fraction (completion-list pressure), clause
// count (multi-attribute probes + PREDICATES-table completion), and
// relation count (first-level hash fan-out).
func sweepMatrix() []sweepSpec {
	var out []sweepSpec
	base := workload.PaperScenario()
	for _, pf := range []float64{0, 0.5, 1} {
		s := base
		s.PointFrac = pf
		out = append(out, sweepSpec{name: fmt.Sprintf("paper/point=%.1f", pf), spec: s, seed: 1})
	}
	ix := base
	ix.IndexableFrac = 0.5
	out = append(out, sweepSpec{name: "halfIndexable", spec: ix, seed: 2})

	one := base
	one.ClausesPer = 1
	out = append(out, sweepSpec{name: "singleClause", spec: one, seed: 3})

	three := base
	three.ClausesPer = 3
	three.PredsPerRel = 120
	out = append(out, sweepSpec{name: "tripleClause", spec: three, seed: 4})

	multi := base
	multi.Relations = 3
	multi.PredsPerRel = 80
	out = append(out, sweepSpec{name: "multiRelation", spec: multi, seed: 5})
	return out
}

// TestDifferentialSweep runs every registered strategy and every
// comparison matcher against the seqscan oracle over the full workload
// generator matrix: same predicate population, same tuple stream,
// identical match sets — then removes a third of the predicates and
// checks again. Subtests are per-strategy/per-cell so a failure names
// the strategy, the cell, and the seed.
func TestDifferentialSweep(t *testing.T) {
	oracleInfo, ok := strategy.Lookup("seqscan")
	if !ok {
		t.Fatal("seqscan oracle not registered")
	}
	const tuplesPerRel = 150
	for _, cell := range sweepMatrix() {
		cell := cell
		rng := rand.New(rand.NewSource(cell.seed))
		pop, err := cell.spec.Build(rng)
		if err != nil {
			t.Fatalf("%s: Build: %v", cell.name, err)
		}
		// One tuple stream per cell, shared by every strategy.
		type probe struct {
			rel string
			t   tuple.Tuple
		}
		var probes []probe
		for _, rel := range pop.Rels {
			for i := 0; i < tuplesPerRel; i++ {
				probes = append(probes, probe{rel.Name(), pop.Tuple(rng, rel)})
			}
		}
		// Remove a deterministic third of the predicates in phase two.
		var removals []pred.ID
		for i, p := range pop.Preds {
			if i%3 == 0 {
				removals = append(removals, p.ID)
			}
		}

		oracle := oracleInfo.New(pop.Catalog, pop.Funcs)
		oracleMatch := func(rel string, tu tuple.Tuple) []pred.ID {
			got, err := oracle.Match(rel, tu, nil)
			if err != nil {
				t.Fatalf("%s: oracle Match: %v", cell.name, err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			return got
		}
		load := func(m matcher.Matcher) error {
			for _, p := range pop.Preds {
				if err := m.Add(p); err != nil {
					return fmt.Errorf("Add(%d): %w", p.ID, err)
				}
			}
			return nil
		}
		if err := load(oracle); err != nil {
			t.Fatalf("%s: oracle %v", cell.name, err)
		}

		// Phase-one and phase-two oracle answers, computed once.
		wantFull := make([][]pred.ID, len(probes))
		for i, pr := range probes {
			wantFull[i] = oracleMatch(pr.rel, pr.t)
		}
		for _, id := range removals {
			if err := oracle.Remove(id); err != nil {
				t.Fatalf("%s: oracle Remove(%d): %v", cell.name, id, err)
			}
		}
		wantPruned := make([][]pred.ID, len(probes))
		for i, pr := range probes {
			wantPruned[i] = oracleMatch(pr.rel, pr.t)
		}

		for _, in := range allMatchers() {
			in := in
			t.Run(in.Name+"/"+cell.name, func(t *testing.T) {
				m := in.New(pop.Catalog, pop.Funcs)
				if err := load(m); err != nil {
					t.Fatal(err)
				}
				if m.Len() != len(pop.Preds) {
					t.Fatalf("Len = %d after loading %d predicates", m.Len(), len(pop.Preds))
				}
				check := func(phase string, want [][]pred.ID) {
					for i, pr := range probes {
						got, err := m.Match(pr.rel, pr.t, nil)
						if err != nil {
							t.Fatalf("%s: Match(%s, %v): %v", phase, pr.rel, pr.t, err)
						}
						sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
						if len(got) != len(want[i]) {
							t.Fatalf("%s: seed %d: Match(%s, %v) = %v, oracle says %v",
								phase, cell.seed, pr.rel, pr.t, got, want[i])
						}
						for j := range got {
							if got[j] != want[i][j] {
								t.Fatalf("%s: seed %d: Match(%s, %v) = %v, oracle says %v",
									phase, cell.seed, pr.rel, pr.t, got, want[i])
							}
						}
					}
				}
				check("full", wantFull)
				for _, id := range removals {
					if err := m.Remove(id); err != nil {
						t.Fatalf("Remove(%d): %v", id, err)
					}
				}
				check("pruned", wantPruned)
			})
		}
	}
}
