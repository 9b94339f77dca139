// Package snapshotmut defines an analyzer that enforces the repo's
// copy-on-write snapshot discipline for the predicate index.
//
// The concurrency model of internal/shard rests on one rule: a
// snapshot — the *core.View a shard publishes, or a *core.Index
// published the same way — becomes immutable the moment it is
// published through an atomic.Pointer
// (Store/CompareAndSwap), and any snapshot obtained from a published
// location (atomic Load, or a matcher's Snapshot accessor) is frozen —
// readers stab it lock-free, so a single mutation is a data race and a
// silent index corruption. A View's base index is frozen with it:
// successive Views share it. Mutation is legal only on a fresh index
// (core.New or Clone) before it is published or built into a View; a
// View changes only by deriving the next one (With, Without, Merged).
//
// The analyzer reports, within each function:
//
//   - a mutating Index method call (Add, Remove, Match, Candidates —
//     Candidates writes the index's scratch buffer, and Match is held
//     to the same rule, so a frozen Index is read through the View
//     that holds it) or a direct field write on a
//     variable after it was passed to an atomic Store/CompareAndSwap;
//   - a mutating Index method call, or a field write, on a value
//     obtained from an atomic Pointer[core.Index or core.View].Load or
//     from a method named Snapshot, directly or via a variable;
//   - a mutating method call on an Index reached through a field of a
//     View (v.base.Add(p)), directly or via a variable.
//
// The check is intraprocedural and source-position based: publishing
// and reassignment are tracked in order of appearance. Clone and New
// reset a variable to mutable; assigning from Load/Snapshot or from a
// View's field freezes it.
package snapshotmut

import (
	"go/ast"
	"go/token"
	"go/types"

	"predmatch/internal/analysis"
)

// Configuration. Defaults describe the real repository; the analyzer
// tests point them at fixture packages.
var (
	// IndexPkg/IndexType name the copy-on-write index type; ViewType is
	// the immutable base+delta view the shards publish, whose Index
	// fields are frozen with it.
	IndexPkg  = "predmatch/internal/core"
	IndexType = "Index"
	ViewType  = "View"
	// MutatingMethods are Index methods that are illegal on a frozen
	// snapshot (Candidates reuses the index scratch buffer; Match is
	// held to the same rule).
	MutatingMethods = map[string]bool{
		"Add": true, "Remove": true, "Match": true, "Candidates": true,
	}
	// FreshMethods return a new, not yet published Index or View.
	FreshMethods = map[string]bool{
		"Clone": true, "New": true,
		"NewView": true, "With": true, "Without": true, "Merged": true,
	}
	// FrozenMethods return a published, immutable Index or View.
	FrozenMethods = map[string]bool{"Snapshot": true}
)

// Analyzer is the snapshotmut analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotmut",
	Doc:  "published core.Index and core.View snapshots are immutable: no mutation after atomic Store, none on Load/Snapshot results or on a View's indexes",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// state of one index-typed variable after an assignment.
type state int

const (
	stateUnknown state = iota
	stateFresh         // from Clone()/New(): mutable until published
	stateFrozen        // from Load()/Snapshot(): never mutable
)

// assignEvent records one assignment to an index variable.
type assignEvent struct {
	pos   token.Pos
	state state
}

type funcFacts struct {
	assigns   map[*types.Var][]assignEvent
	publishes map[*types.Var][]token.Pos
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	facts := &funcFacts{
		assigns:   make(map[*types.Var][]assignEvent),
		publishes: make(map[*types.Var][]token.Pos),
	}

	// Pass 1: collect assignments to and publishes of index variables.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					v := indexVar(pass, lhs)
					if v == nil {
						continue
					}
					facts.assigns[v] = append(facts.assigns[v], assignEvent{
						pos:   n.Pos(),
						state: classify(pass, n.Rhs[i]),
					})
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				v, _ := pass.TypesInfo.Defs[name].(*types.Var)
				if v == nil || !isSnapshotPtr(v.Type()) {
					continue
				}
				st := stateUnknown
				if i < len(n.Values) {
					st = classify(pass, n.Values[i])
				}
				facts.assigns[v] = append(facts.assigns[v], assignEvent{pos: n.Pos(), state: st})
			}
		case *ast.CallExpr:
			if v, pos := publishedVar(pass, n); v != nil {
				facts.publishes[v] = append(facts.publishes[v], pos)
			}
		}
		return true
	})

	// Pass 2: flag mutations of frozen or published values.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !MutatingMethods[fun.Sel.Name] {
				return true
			}
			if !isIndexPtr(pass.TypeOf(fun.X)) {
				return true
			}
			checkMutation(pass, facts, fun.X, n.Pos(),
				"call to "+IndexType+"."+fun.Sel.Name)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := unwrap(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if !isSnapshotPtr(pass.TypeOf(sel.X)) {
					continue
				}
				checkMutation(pass, facts, sel.X, lhs.Pos(),
					"write to field "+sel.Sel.Name)
			}
		}
		return true
	})
}

// checkMutation reports if recv — the receiver of a mutating operation
// at pos — is a frozen or already-published index.
func checkMutation(pass *analysis.Pass, facts *funcFacts, recv ast.Expr, pos token.Pos, what string) {
	recv = unwrap(recv)
	// Direct chain: sh.snap.Load().Add(p) or m.Snapshot(rel).Add(p).
	if call, ok := recv.(*ast.CallExpr); ok {
		if src := frozenSource(pass, call); src != "" {
			pass.Reportf(pos, "%s on the frozen snapshot returned by %s: published indexes are immutable (Clone it first)", what, src)
		}
		return
	}
	// Direct chain through a View: v.base.Add(p).
	if viewIndexField(pass, recv) {
		pass.Reportf(pos, "%s on an index reached through a %s: a View's indexes are frozen with it (Clone it first)", what, ViewType)
		return
	}
	v := indexVar(pass, recv)
	if v == nil {
		return
	}
	// Governing assignment: the last one at or before pos.
	gov := assignEvent{pos: token.NoPos, state: stateUnknown}
	for _, a := range facts.assigns[v] {
		if a.pos <= pos && a.pos >= gov.pos {
			gov = a
		}
	}
	if gov.state == stateFrozen {
		pass.Reportf(pos, "%s on %s, a frozen snapshot obtained from a published location: published indexes are immutable (Clone it first)", what, v.Name())
		return
	}
	// Published between the governing assignment and the mutation?
	for _, p := range facts.publishes[v] {
		if p >= gov.pos && p < pos {
			pass.Reportf(pos, "%s on %s after it was published with an atomic Store: mutate the clone before publishing, never after", what, v.Name())
			return
		}
	}
}

// indexVar returns the *types.Var behind an identifier of type
// *core.Index or *core.View, or nil.
func indexVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	id, ok := unwrap(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || !isSnapshotPtr(v.Type()) {
		return nil
	}
	return v
}

// isIndexPtr reports whether t is *core.Index (or core.Index).
func isIndexPtr(t types.Type) bool {
	return analysis.IsNamed(t, IndexPkg, IndexType)
}

// isSnapshotPtr reports whether t is one of the two published types,
// *core.Index or *core.View (or the value types).
func isSnapshotPtr(t types.Type) bool {
	return isIndexPtr(t) || analysis.IsNamed(t, IndexPkg, ViewType)
}

// viewIndexField reports whether e selects an Index-typed field of a
// View (v.base).
func viewIndexField(pass *analysis.Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && isIndexPtr(pass.TypeOf(sel)) && analysis.IsNamed(pass.TypeOf(sel.X), IndexPkg, ViewType)
}

// isAtomicIndexPointer reports whether t is sync/atomic.Pointer of
// core.Index or core.View.
func isAtomicIndexPointer(t types.Type) bool {
	if !analysis.IsNamed(t, "sync/atomic", "Pointer") {
		return false
	}
	arg := analysis.TypeArg(t, 0)
	return arg != nil && isSnapshotPtr(arg)
}

// classify determines the snapshot state an expression yields.
func classify(pass *analysis.Pass, e ast.Expr) state {
	e = unwrap(e)
	switch x := e.(type) {
	case *ast.CallExpr:
		if src := frozenSource(pass, x); src != "" {
			return stateFrozen
		}
		if fun, ok := x.Fun.(*ast.SelectorExpr); ok && FreshMethods[fun.Sel.Name] {
			if isSnapshotPtr(pass.TypeOf(x)) {
				return stateFresh
			}
		}
	case *ast.SelectorExpr:
		if viewIndexField(pass, x) {
			return stateFrozen
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, ok := x.X.(*ast.CompositeLit); ok && isSnapshotPtr(pass.TypeOf(x)) {
				return stateFresh
			}
		}
	}
	return stateUnknown
}

// frozenSource reports whether call yields a frozen snapshot — an
// atomic Pointer[Index or View].Load() or a FrozenMethods call
// returning one — naming the source for the diagnostic, or "".
func frozenSource(pass *analysis.Pass, call *ast.CallExpr) string {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if fun.Sel.Name == "Load" && isAtomicIndexPointer(pass.TypeOf(fun.X)) {
		return "atomic Load"
	}
	if FrozenMethods[fun.Sel.Name] && isSnapshotPtr(pass.TypeOf(call)) {
		return fun.Sel.Name
	}
	return ""
}

// publishedVar recognizes atomic Pointer[Index].Store(v) and
// CompareAndSwap(old, v) calls, returning the published variable.
func publishedVar(pass *analysis.Pass, call *ast.CallExpr) (*types.Var, token.Pos) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isAtomicIndexPointer(pass.TypeOf(fun.X)) {
		return nil, token.NoPos
	}
	var arg ast.Expr
	switch fun.Sel.Name {
	case "Store":
		if len(call.Args) == 1 {
			arg = call.Args[0]
		}
	case "CompareAndSwap":
		if len(call.Args) == 2 {
			arg = call.Args[1]
		}
	}
	if arg == nil {
		return nil, token.NoPos
	}
	if v := indexVar(pass, arg); v != nil {
		return v, call.Pos()
	}
	return nil, token.NoPos
}

// unwrap strips parens and stars.
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}
