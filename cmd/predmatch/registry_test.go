package main

import (
	"strings"
	"testing"

	"predmatch/internal/pred"
	"predmatch/internal/storage"
	"predmatch/internal/strategy"
)

// TestFactoryCoversRegistry asserts the -matcher flag and the shared
// strategy registry agree: every registered name resolves to a working
// factory, the produced matcher reports the registered name, and the
// flag's help text mentions every strategy — so the usage string can
// never go stale again (the PR-6 bug was a help string listing 6 of
// the strategies).
func TestFactoryCoversRegistry(t *testing.T) {
	help := strategy.FlagHelp()
	for _, in := range strategy.All() {
		mk, err := matcherFactory(in.Name)
		if err != nil {
			t.Errorf("matcherFactory(%q): %v", in.Name, err)
			continue
		}
		db := storage.NewDB()
		m := mk(db, pred.NewRegistry())
		if m == nil {
			t.Errorf("factory %q returned nil matcher", in.Name)
			continue
		}
		if m.Name() != in.Name {
			t.Errorf("factory %q built matcher named %q", in.Name, m.Name())
		}
		if !strings.Contains(help, in.Name) {
			t.Errorf("flag help omits strategy %q: %s", in.Name, help)
		}
	}
	// An unknown name, or the reproduction-only islist, is rejected with
	// an error enumerating the real choices.
	for _, name := range []string{"nosuch", "islist"} {
		want := `unknown matcher "` + name + `" (want one of ibs, hint, seqscan, sharded, sharded-hint)`
		if _, err := matcherFactory(name); err == nil || err.Error() != want {
			t.Errorf("matcherFactory(%q) error = %v, want %q", name, err, want)
		}
	}
	if want := "matching strategy (one of ibs, hint, seqscan, sharded, sharded-hint)"; help != want {
		t.Errorf("flag help = %q, want %q", help, want)
	}
}

// TestIndexNamesAreCoreStrategies asserts every predmatchd -index
// choice resolves CoreOptions and appears in the index flag help, and
// that anything else — a whole-matcher strategy, an unregistered
// comparison structure, the removed adaptive selector — is rejected
// with an error naming exactly the served choices.
func TestIndexNamesAreCoreStrategies(t *testing.T) {
	help := strategy.IndexFlagHelp()
	for _, name := range strategy.IndexNames() {
		if _, ok := strategy.CoreOptions(name); !ok {
			t.Errorf("IndexNames lists %q but CoreOptions rejects it", name)
		}
		if !strings.Contains(help, name) {
			t.Errorf("index flag help omits %q: %s", name, help)
		}
	}
	if want := "per-shard attribute index structure (one of ibs, hint)"; help != want {
		t.Errorf("index flag help = %q, want %q", help, want)
	}
	for _, name := range []string{"islist", "rtree", "pst", "meta"} {
		if _, ok := strategy.CoreOptions(name); ok {
			t.Errorf("CoreOptions accepted %q, which the daemon does not serve", name)
		}
		want := `unknown index "` + name + `" (want one of ibs, hint)`
		if got := strategy.UnknownIndexErr(name).Error(); got != want {
			t.Errorf("UnknownIndexErr(%q) = %q, want %q", name, got, want)
		}
	}
}
