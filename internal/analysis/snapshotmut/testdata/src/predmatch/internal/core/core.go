// Package core is a fixture miniature of the real predicate index: just
// enough surface for the snapshotmut analyzer — the mutating (Add,
// Remove, Match, Candidates), fresh (New, Clone) and read-only
// (MatchSnapshot) method sets on the copy-on-write Index type, and the
// immutable View (fresh: NewView, With, Without, Merged; read-only:
// Match) whose Index fields are frozen with it.
package core

// Index is the copy-on-write predicate index.
type Index struct {
	IDs []int
}

// New returns a fresh mutable index.
func New() *Index { return &Index{} }

// Clone returns a fresh mutable copy.
func (ix *Index) Clone() *Index {
	return &Index{IDs: append([]int(nil), ix.IDs...)}
}

// Add registers a predicate id (mutating).
func (ix *Index) Add(id int) error {
	ix.IDs = append(ix.IDs, id)
	return nil
}

// Remove drops a predicate id (mutating).
func (ix *Index) Remove(id int) error {
	for i, v := range ix.IDs {
		if v == id {
			ix.IDs = append(ix.IDs[:i], ix.IDs[i+1:]...)
			return nil
		}
	}
	return nil
}

// Match stabs the index, reusing an internal scratch buffer (mutating).
func (ix *Index) Match(rel string) []int { return ix.IDs }

// Candidates is Match without residual evaluation (mutating).
func (ix *Index) Candidates(rel string) []int { return ix.IDs }

// MatchSnapshot is the read-only stab, legal on frozen snapshots.
func (ix *Index) MatchSnapshot(rel string) []int { return nil }

// View is the immutable base + delta + tombstones snapshot.
type View struct {
	Base, Delta *Index
	Dead        []int
}

// NewView returns an empty view.
func NewView() *View { return &View{Base: New(), Delta: New()} }

// With returns v plus id: the legal way to change a view — clone the
// delta, mutate the clone, build the next view around it.
func (v *View) With(id int) *View {
	d := v.Delta.Clone()
	_ = d.Add(id)
	return &View{Base: v.Base, Delta: d, Dead: v.Dead}
}

// Without returns v minus id.
func (v *View) Without(id int) *View {
	return &View{Base: v.Base, Delta: v.Delta, Dead: append(append([]int(nil), v.Dead...), id)}
}

// Merged returns v folded into a single base.
func (v *View) Merged() *View { return &View{Base: v.Base.Clone(), Delta: New()} }

// Match is the read-only two-level stab, legal on published views.
func (v *View) Match(rel string) []int { return nil }

// brokenWith seeds the violation With avoids: it mutates the delta the
// receiver shares with every reader that loaded it.
func (v *View) brokenWith(id int) *View {
	_ = v.Delta.Add(id) // want `index reached through a View`
	return v
}

// brokenWithVar does the same through a variable.
func (v *View) brokenWithVar(id int) *View {
	d := v.Delta
	_ = d.Add(id) // want `frozen snapshot obtained from a published location`
	return &View{Base: v.Base, Delta: d, Dead: v.Dead}
}
