package strategy_test

import (
	"reflect"
	"testing"

	"predmatch/internal/matcher"
	"predmatch/internal/matchertest"
	"predmatch/internal/strategy"
)

func TestRegistryShape(t *testing.T) {
	names := strategy.Names()
	if len(names) != len(strategy.All()) {
		t.Fatalf("Names/All length mismatch")
	}
	for _, n := range names {
		in, ok := strategy.Lookup(n)
		if !ok || in.Name != n {
			t.Errorf("Lookup(%q) = %+v, %v", n, in, ok)
		}
		if in.Summary == "" {
			t.Errorf("strategy %q has no summary", n)
		}
	}
	// The registry holds exactly the strategies a binary serves.
	served := []string{"ibs", "hint", "seqscan", "sharded", "sharded-hint"}
	if !reflect.DeepEqual(names, served) {
		t.Errorf("Names() = %v, want %v", names, served)
	}
	for _, in := range comparison {
		if _, ok := strategy.Lookup(in.Name); ok {
			t.Errorf("comparison-only matcher %q is registered", in.Name)
		}
	}
	if _, ok := strategy.Lookup("nosuch"); ok {
		t.Error("Lookup accepted unknown name")
	}
	// The daemon serves exactly two attribute-index structures:
	// whole-matcher strategies, the reproduction-only islist and the
	// removed adaptive selector stay out of -index.
	serving := []string{"ibs", "hint"}
	if got := strategy.IndexNames(); !reflect.DeepEqual(got, serving) {
		t.Errorf("IndexNames() = %v, want %v", got, serving)
	}
	for _, n := range serving {
		if _, ok := strategy.CoreOptions(n); !ok {
			t.Errorf("CoreOptions(%q) = false", n)
		}
	}
	for _, n := range []string{
		"ibs-unbalanced", "islist", "segtree", "inttree", "pst", "augtree",
		"hashseq", "seqscan", "rtree", "sharded", "sharded-hint", "meta",
	} {
		if _, ok := strategy.CoreOptions(n); ok {
			t.Errorf("CoreOptions(%q) = true for a strategy the daemon does not serve", n)
		}
	}
}

// TestConformanceAllStrategies runs the full matchertest behavioral
// gauntlet — conformance, error contract, multi-relation isolation,
// dst-append semantics — over every registered strategy and every
// comparison matcher, with per-strategy subtests so a failure names the
// offender.
func TestConformanceAllStrategies(t *testing.T) {
	for _, in := range allMatchers() {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			matchertest.Run(t, func(f *matchertest.Fixture) matcher.Matcher {
				return in.New(f.Catalog, f.Funcs)
			})
		})
	}
}

// TestConcurrentServingStrategies storms the lock-free serving-layer
// strategies with the concurrent harness (4 writers × 4 readers against
// copy-on-write snapshot swaps). The single-writer strategies are
// covered by the same harness behind matchertest.Synchronized in their
// own packages.
func TestConcurrentServingStrategies(t *testing.T) {
	for _, name := range []string{"sharded", "sharded-hint"} {
		in, ok := strategy.Lookup(name)
		if !ok {
			t.Fatalf("strategy %q not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			matchertest.RunConcurrent(t, func(f *matchertest.Fixture) matcher.Matcher {
				return in.New(f.Catalog, f.Funcs)
			})
		})
	}
}
