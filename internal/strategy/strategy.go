// Package strategy is the single registry of the predicate-matching
// strategies the binaries serve, keyed by the name users pass to
// `predmatch -matcher` and `predmatchd -index`. The binaries derive
// their flag help from this registry, so the documented list can never
// drift from the implemented one (a test asserts exactly that).
//
// Two families live here:
//
//   - Whole-matcher strategies (seqscan, sharded, sharded-hint):
//     self-contained matcher.Matcher implementations; seqscan is the
//     oracle every other strategy is checked against.
//   - Attribute-index strategies (ibs, hint): the paper's Figure-1
//     scheme (core.Index) with the per-attribute interval structure
//     swapped via core.WithIndexFactory. They also report CoreOptions,
//     which is how the daemon (server.Config.Index) runs the sharded
//     serving layer with them as the per-shard index.
//
// The structures of the paper's Section 6 comparison (interval skip
// list, segment tree, interval tree, priority search tree, R-tree, …)
// are not served; the reproduction in internal/experiments builds them
// directly.
package strategy

import (
	"fmt"
	"strings"

	"predmatch/internal/core"
	"predmatch/internal/hint"
	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/schema"
	"predmatch/internal/seqscan"
	"predmatch/internal/shard"
	"predmatch/internal/value"
)

// Factory builds a fresh matcher for a catalog and function registry.
type Factory func(*schema.Catalog, *pred.Registry) matcher.Matcher

// Info describes one registered strategy.
type Info struct {
	Name    string
	Summary string // one line for help text and docs
	New     Factory
	// coreOpts is non-nil for the attribute-index strategies: the
	// core.Option set that makes a core.Index (or each shard of a
	// ShardedMatcher) use this structure.
	coreOpts func() []core.Option
}

// hintOptions makes a core.Index use HINT as its attribute structure.
func hintOptions() []core.Option {
	return []core.Option{
		core.WithIndexFactory(func() core.AttrIndex { return hint.New(value.Compare) }),
		core.WithName("hint"),
	}
}

// registry holds every strategy in presentation order: the paper's
// scheme and its attribute-index variant first, then the seqscan
// oracle, then the serving-layer wrappers.
var registry = []Info{
	{
		Name:    "ibs",
		Summary: "the paper's scheme: per-attribute IBS-trees (balanced)",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return core.New(cat, funcs)
		},
		coreOpts: func() []core.Option { return nil },
	},
	{
		Name:    "hint",
		Summary: "HINT-style flat hierarchical domain partitioning (cache-conscious, lazily rebuilt)",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return core.New(cat, funcs, hintOptions()...)
		},
		coreOpts: hintOptions,
	},
	{
		Name:    "seqscan",
		Summary: "flat sequential scan over every predicate (the oracle)",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return seqscan.New(cat, funcs)
		},
	},
	{
		Name:    "sharded",
		Summary: "per-relation copy-on-write shards over IBS-trees (the serving layer)",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return shard.New(cat, funcs)
		},
	},
	{
		Name:    "sharded-hint",
		Summary: "per-relation copy-on-write shards over HINT hierarchies",
		New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
			return shard.New(cat, funcs,
				shard.WithIndexOptions(hintOptions()...), shard.WithName("sharded-hint"))
		},
	},
}

// All returns every registered strategy in presentation order.
func All() []Info {
	return append([]Info(nil), registry...)
}

// Lookup resolves a strategy by name.
func Lookup(name string) (Info, bool) {
	for _, in := range registry {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

// Names returns every strategy name in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, in := range registry {
		out[i] = in.Name
	}
	return out
}

// IndexNames returns the names the daemon serves as a per-shard
// attribute index (the strategies CoreOptions resolves), in
// presentation order.
func IndexNames() []string {
	var out []string
	for _, in := range registry {
		if in.coreOpts != nil {
			out = append(out, in.Name)
		}
	}
	return out
}

// CoreOptions returns the core.Option set that makes a core.Index use
// the named strategy's attribute structure; ok is false for the
// whole-matcher strategies (seqscan, sharded, sharded-hint), which don't
// decompose into per-attribute indexes.
func CoreOptions(name string) ([]core.Option, bool) {
	in, ok := Lookup(name)
	if !ok || in.coreOpts == nil {
		return nil, false
	}
	return in.coreOpts(), true
}

// FlagHelp renders the strategy list for a -matcher style flag's usage
// string: every registered name, comma-separated, in order.
func FlagHelp() string {
	return "matching strategy (one of " + strings.Join(Names(), ", ") + ")"
}

// IndexFlagHelp renders the usage string for predmatchd's -index flag:
// the strategies served as a per-shard attribute index.
func IndexFlagHelp() string {
	return "per-shard attribute index structure (one of " + strings.Join(IndexNames(), ", ") + ")"
}

// UnknownErr builds the standard unknown-strategy error, naming every
// valid choice.
func UnknownErr(name string) error {
	return fmt.Errorf("unknown matcher %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// UnknownIndexErr is UnknownErr for the attribute-index subset.
func UnknownIndexErr(name string) error {
	return fmt.Errorf("unknown index %q (want one of %s)", name, strings.Join(IndexNames(), ", "))
}
