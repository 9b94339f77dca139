// Package atomicpub defines an analyzer that enforces the repo's
// publish-then-freeze discipline for every atomic.Pointer[T]. Three
// exist today: hint.Index.built (the lazily built flat hierarchy),
// ShardedMatcher.dir (the copy-on-write relation directory) and
// relShard.snap (each relation's published core.View).
//
// Three rules, all intraprocedural over the framework's CFG:
//
//   - publish-freeze: once a value is passed to Store / Swap /
//     CompareAndSwap it is shared with lock-free readers, so a field or
//     element write through the publishing variable on any path after
//     the publish — including a loop back-edge into the same statements
//     — is a data race. Reassigning the variable to a fresh value kills
//     the taint.
//
//   - load-freeze: a value obtained from Load is someone else's
//     published snapshot; writing through it (directly,
//     P.Load().F = x, or via a variable assigned from a Load) is
//     equally a race. Copy first, mutate the copy.
//
//   - double-checked re-load: the lazy-rebuild idiom loads, finds nil,
//     takes the rebuild lock, and must load AGAIN before storing —
//     between the first load and the lock another goroutine may have
//     completed the rebuild, and storing without re-checking clobbers
//     its work. Flagged when a Load dominates a mutex Lock that
//     dominates the Store and no re-Load of the same pointer sits
//     between the Lock and the Store.
//
// Both dataflow rules are may-analyses (union at joins): a write that
// races on only one path is still a race. Pointer identity is
// syntactic — the receiver expression's source text names the slot —
// which is exact within one function, where these idioms live.
// Function literals are opaque, matching the CFG.
package atomicpub

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"predmatch/internal/analysis"
)

// Analyzer is the atomicpub analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "atomicpub",
	Doc:  "values published through any atomic.Pointer are immutable; double-checked rebuilds must re-load under the lock",
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

// event is one dataflow-relevant action inside a CFG block, in source
// order.
type event struct {
	pos token.Pos
	v   *types.Var // variable concerned (nil for direct-chain writes)

	kind eventKind
	what string // for writes: source text of the written expression
}

type eventKind int

const (
	evPublish eventKind = iota // v passed to Store/Swap/CompareAndSwap
	evAssign                   // v reassigned to a non-frozen value
	evFreeze                   // v assigned from a Load
	evWrite                    // field/element write through v
)

// varState is the per-variable dataflow fact.
type varState struct{ published, frozen bool }

// slotCall is a Load, Store or Lock call, keyed for rule 3.
type slotCall struct {
	slot string // source text of the atomic.Pointer expression
	pos  token.Pos
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	cfg := analysis.NewCFG(fd.Body)
	var loads, stores, locks []slotCall
	events := make([][]event, len(cfg.Blocks))

	for i, blk := range cfg.Blocks {
		for _, stmt := range blk.Nodes {
			if _, ok := stmt.(*ast.DeferStmt); ok {
				continue
			}
			analysis.InspectBlockNode(stmt, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit, *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					collectCall(pass, n, i, events, &loads, &stores, &locks)
				case *ast.AssignStmt:
					collectAssign(pass, n, i, events)
				case *ast.IncDecStmt:
					if ev, ok := writeEvent(pass, n.X, n.Pos()); ok {
						events[i] = append(events[i], ev)
					}
				}
				return true
			})
		}
		sort.SliceStable(events[i], func(a, b int) bool {
			return events[i][a].pos < events[i][b].pos
		})
	}

	runDataflow(pass, cfg, events)
	checkDoubleChecked(pass, cfg, loads, stores, locks)
}

// collectCall records Load/Store/Lock calls and publish events.
func collectCall(pass *analysis.Pass, call *ast.CallExpr, blk int, events [][]event,
	loads, stores, locks *[]slotCall) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if fun.Sel.Name == "Lock" && isMutex(pass.TypeOf(fun.X)) {
		*locks = append(*locks, slotCall{pos: call.Pos()})
		return
	}
	if !isAtomicPtr(pass.TypeOf(fun.X)) {
		return
	}
	slot := types.ExprString(fun.X)
	var published ast.Expr
	switch fun.Sel.Name {
	case "Load":
		*loads = append(*loads, slotCall{slot: slot, pos: call.Pos()})
		return
	case "Store", "Swap":
		if len(call.Args) == 1 {
			published = call.Args[0]
		}
	case "CompareAndSwap":
		if len(call.Args) == 2 {
			published = call.Args[1]
		}
	default:
		return
	}
	*stores = append(*stores, slotCall{slot: slot, pos: call.Pos()})
	if v := baseIdentVar(pass, published); v != nil {
		events[blk] = append(events[blk], event{pos: call.Pos(), v: v, kind: evPublish})
	}
}

// collectAssign records kills (reassignments), freezes (assignment
// from a Load) and writes through tracked variables.
func collectAssign(pass *analysis.Pass, n *ast.AssignStmt, blk int, events [][]event) {
	paired := len(n.Lhs) == len(n.Rhs)
	for i, lhs := range n.Lhs {
		if id, ok := stripParen(lhs).(*ast.Ident); ok {
			// Whole-variable assignment: kill, or freeze if the new
			// value comes straight from an atomic Load.
			v := identVar(pass, id)
			if v == nil {
				continue
			}
			kind := evAssign
			if paired && isLoadResult(pass, n.Rhs[i]) {
				kind = evFreeze
			}
			events[blk] = append(events[blk], event{pos: n.Pos(), v: v, kind: kind})
			continue
		}
		if ev, ok := writeEvent(pass, lhs, lhs.Pos()); ok {
			events[blk] = append(events[blk], ev)
		} else if root := chainRoot(lhs); root != nil && isLoadCall(pass, root) {
			// Direct write through a Load chain: always a race.
			pass.Reportf(lhs.Pos(),
				"write to %s, part of the frozen snapshot returned by atomic Load: published values are immutable (copy before mutating)",
				types.ExprString(lhs))
		}
	}
}

// writeEvent builds an evWrite for a selector/index write whose chain
// roots at a plain variable.
func writeEvent(pass *analysis.Pass, lhs ast.Expr, pos token.Pos) (event, bool) {
	root := chainRoot(lhs)
	id, ok := root.(*ast.Ident)
	if !ok {
		return event{}, false
	}
	if root == stripParen(lhs) {
		return event{}, false // plain ident: that's an assignment, not a write-through
	}
	v := identVar(pass, id)
	if v == nil {
		return event{}, false
	}
	return event{pos: pos, v: v, kind: evWrite, what: types.ExprString(lhs)}, true
}

// runDataflow runs the may-published/may-frozen analysis and reports
// racy writes.
func runDataflow(pass *analysis.Pass, cfg *analysis.CFG, events [][]event) {
	any := false
	for _, evs := range events {
		if len(evs) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	in := make([]map[*types.Var]varState, len(cfg.Blocks))
	out := make([]map[*types.Var]varState, len(cfg.Blocks))
	in[0] = map[*types.Var]varState{}
	for changed := true; changed; {
		changed = false
		for i, blk := range cfg.Blocks {
			if i != 0 {
				merged := make(map[*types.Var]varState)
				for _, p := range blk.Preds {
					for v, st := range out[p.Index] {
						m := merged[v]
						m.published = m.published || st.published
						m.frozen = m.frozen || st.frozen
						merged[v] = m
					}
				}
				in[i] = merged
			}
			o := applyEvents(in[i], events[i], nil)
			if !sameState(o, out[i]) {
				out[i] = o
				changed = true
			}
		}
	}
	for i := range cfg.Blocks {
		applyEvents(in[i], events[i], pass)
	}
}

// applyEvents folds a block's events over the incoming state; when
// pass is non-nil, racy writes are reported.
func applyEvents(in map[*types.Var]varState, events []event, pass *analysis.Pass) map[*types.Var]varState {
	st := make(map[*types.Var]varState, len(in))
	for v, s := range in {
		st[v] = s
	}
	for _, ev := range events {
		switch ev.kind {
		case evPublish:
			s := st[ev.v]
			s.published = true
			st[ev.v] = s
		case evAssign:
			delete(st, ev.v)
		case evFreeze:
			st[ev.v] = varState{frozen: true}
		case evWrite:
			if pass == nil {
				continue
			}
			s := st[ev.v]
			if s.published {
				pass.Reportf(ev.pos,
					"write to %s after %s was published with an atomic Store: lock-free readers already see it (mutate before publishing, or clone)",
					ev.what, ev.v.Name())
			} else if s.frozen {
				pass.Reportf(ev.pos,
					"write to %s through %s, a frozen snapshot obtained from an atomic Load: published values are immutable (copy before mutating)",
					ev.what, ev.v.Name())
			}
		}
	}
	return st
}

func sameState(a, b map[*types.Var]varState) bool {
	if b == nil || len(a) != len(b) {
		return false
	}
	for v, s := range a {
		if bs, ok := b[v]; !ok || bs != s {
			return false
		}
	}
	return true
}

// checkDoubleChecked enforces rule 3: for every Store whose pointer was
// loaded before a dominating Lock, a re-Load must sit between the Lock
// and the Store.
func checkDoubleChecked(pass *analysis.Pass, cfg *analysis.CFG, loads, stores, locks []slotCall) {
	for _, s := range stores {
		reported := false
		for _, k := range locks {
			if reported || !cfg.Dominates(k.pos, s.pos) {
				continue
			}
			early := false
			for _, l := range loads {
				if l.slot == s.slot && cfg.Dominates(l.pos, k.pos) {
					early = true
					break
				}
			}
			if !early {
				continue
			}
			reloaded := false
			for _, l := range loads {
				if l.slot == s.slot && l.pos > k.pos &&
					cfg.Reaches(k.pos, l.pos) && cfg.Reaches(l.pos, s.pos) {
					reloaded = true
					break
				}
			}
			if !reloaded {
				pass.Reportf(s.pos,
					"double-checked publish of %s: the pre-lock Load is stale once the lock is held; re-Load and re-check before storing",
					s.slot)
				reported = true
			}
		}
	}
}

// --- type and expression helpers ---

func isAtomicPtr(t types.Type) bool { return analysis.IsNamed(t, "sync/atomic", "Pointer") }

func isMutex(t types.Type) bool {
	return analysis.IsNamed(t, "sync", "Mutex") || analysis.IsNamed(t, "sync", "RWMutex")
}

// isLoadCall reports whether e is a call to an atomic.Pointer Load.
func isLoadCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := call.Fun.(*ast.SelectorExpr)
	return ok && fun.Sel.Name == "Load" && isAtomicPtr(pass.TypeOf(fun.X))
}

// isLoadResult reports whether rhs is P.Load() or *P.Load().
func isLoadResult(pass *analysis.Pass, rhs ast.Expr) bool {
	for {
		switch x := rhs.(type) {
		case *ast.ParenExpr:
			rhs = x.X
		case *ast.StarExpr:
			rhs = x.X
		default:
			return isLoadCall(pass, rhs)
		}
	}
}

// chainRoot unwraps selectors, indexes, stars and parens down to the
// root expression of an lvalue chain.
func chainRoot(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return e
		}
	}
}

func stripParen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// identVar resolves an identifier to its variable object.
func identVar(pass *analysis.Pass, id *ast.Ident) *types.Var {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// baseIdentVar resolves v or &v to a variable object, so both
// p.Store(next) and p.Store(&next) taint next.
func baseIdentVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	if e == nil {
		return nil
	}
	e = stripParen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = stripParen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return identVar(pass, id)
}
