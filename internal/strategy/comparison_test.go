package strategy_test

import (
	"fmt"

	"predmatch/internal/augtree"
	"predmatch/internal/core"
	"predmatch/internal/hashseq"
	"predmatch/internal/ibs"
	"predmatch/internal/interval"
	"predmatch/internal/inttree"
	"predmatch/internal/islist"
	"predmatch/internal/markset"
	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/pst"
	"predmatch/internal/rtree"
	"predmatch/internal/schema"
	"predmatch/internal/segtree"
	"predmatch/internal/strategy"
	"predmatch/internal/value"
)

// comparison lists the matchers of the paper's Section 6 comparison
// that the registry does not serve. The conformance gauntlet and the
// differential sweep run them beside strategy.All(), so every matcher
// the repository builds keeps its seqscan-oracle coverage.
var comparison = []strategy.Info{
	{Name: "ibs-unbalanced", New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
		return core.New(cat, funcs, core.WithTreeOptions(ibs.Balanced(false)), core.WithName("ibs-unbalanced"))
	}},
	attrIndex("islist", func() core.AttrIndex { return islist.New(value.Compare) }),
	attrIndex("segtree", func() core.AttrIndex { return &rebuilt{build: buildSegtree} }),
	attrIndex("inttree", func() core.AttrIndex { return &rebuilt{build: buildInttree} }),
	attrIndex("pst", func() core.AttrIndex { return pst.New(value.Compare) }),
	attrIndex("augtree", func() core.AttrIndex { return augtree.New(value.Compare) }),
	{Name: "hashseq", New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
		return hashseq.New(cat, funcs)
	}},
	{Name: "rtree", New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
		return rtree.NewPredMatcher(cat, funcs)
	}},
}

// allMatchers is strategy.All() followed by the comparison matchers.
func allMatchers() []strategy.Info { return append(strategy.All(), comparison...) }

// attrIndex is a core.Index whose per-attribute structure is factory.
func attrIndex(name string, factory core.IndexFactory) strategy.Info {
	return strategy.Info{Name: name, New: func(cat *schema.Catalog, funcs *pred.Registry) matcher.Matcher {
		return core.New(cat, funcs, core.WithIndexFactory(factory), core.WithName(name))
	}}
}

// stabber is the read surface of the build-once structures.
type stabber interface {
	StabAppend(x value.Value, dst []markset.ID) []markset.ID
}

// rebuilt adapts a build-once structure (segment tree, centered interval
// tree) to core.AttrIndex: a write drops the built structure and the
// next stab rebuilds it from the registered intervals. Not safe for
// concurrent use.
type rebuilt struct {
	items map[markset.ID]interval.Interval[value.Value]
	build func(map[markset.ID]interval.Interval[value.Value]) stabber
	cur   stabber
}

func (r *rebuilt) Len() int { return len(r.items) }

func (r *rebuilt) Insert(id markset.ID, iv interval.Interval[value.Value]) error {
	if err := iv.Validate(value.Compare); err != nil {
		return err
	}
	if _, dup := r.items[id]; dup {
		return fmt.Errorf("duplicate interval id %d", id)
	}
	if r.items == nil {
		r.items = make(map[markset.ID]interval.Interval[value.Value])
	}
	r.items[id], r.cur = iv, nil
	return nil
}

func (r *rebuilt) Delete(id markset.ID) error {
	if _, ok := r.items[id]; !ok {
		return fmt.Errorf("unknown interval id %d", id)
	}
	delete(r.items, id)
	r.cur = nil
	return nil
}

func (r *rebuilt) StabAppend(x value.Value, dst []markset.ID) []markset.ID {
	if r.cur == nil {
		r.cur = r.build(r.items)
	}
	return r.cur.StabAppend(x, dst)
}

func buildSegtree(items map[markset.ID]interval.Interval[value.Value]) stabber {
	list := make([]segtree.Item[value.Value], 0, len(items))
	for id, iv := range items {
		list = append(list, segtree.Item[value.Value]{ID: id, Iv: iv})
	}
	return segtree.Build(value.Compare, list)
}

func buildInttree(items map[markset.ID]interval.Interval[value.Value]) stabber {
	list := make([]inttree.Item[value.Value], 0, len(items))
	for id, iv := range items {
		list = append(list, inttree.Item[value.Value]{ID: id, Iv: iv})
	}
	return inttree.Build(value.Compare, list)
}
