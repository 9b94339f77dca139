// Package markdiscipline defines an analyzer that keeps every mutation
// of the IBS-tree's per-node mark sets (the paper's '<', '=' and '>'
// sets, Figures 5 and 6) inside the centralized fix-up helpers.
//
// The rotation and deletion fix-up rules are the subtlest part of the
// IBS-tree: a mark write from anywhere else in the package bypasses the
// mark registry that deletion relies on and silently corrupts stabbing
// answers. The analyzer therefore reports any write to node.marks —
// direct assignment, or a call to a mutating mark-set method such as
// Add/Remove — from a file other than the allowed fix-up files.
// Reads (Each, AppendTo, Has, IDs, Len) are allowed everywhere, as is the
// composite-literal initialization of a freshly allocated node.
package markdiscipline

import (
	"go/ast"
	"path/filepath"
	"sort"
	"strings"

	"predmatch/internal/analysis"
)

// Configuration. Defaults describe the real repository; the analyzer
// tests point them at fixture packages.
var (
	// PkgPath is the import path of the IBS-tree package.
	PkgPath = "predmatch/internal/ibs"
	// NodeType is the tree-node struct carrying the mark sets.
	NodeType = "node"
	// MarksField is the mark-set field of NodeType.
	MarksField = "marks"
	// AllowedFiles are the file basenames that may mutate mark sets:
	// the mark registry and the rotation/deletion fix-up rules.
	AllowedFiles = map[string]bool{
		"marks.go":  true,
		"rotate.go": true,
		"remove.go": true,
	}
	// MutatingMethods are the mark-set methods that modify the set.
	MutatingMethods = map[string]bool{"Add": true, "Remove": true}
)

// Analyzer is the markdiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "markdiscipline",
	Doc:  "IBS-tree mark sets may only be mutated by the centralized fix-up helpers (marks.go, rotate.go, remove.go)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() != PkgPath {
		return nil
	}
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if AllowedFiles[name] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel := marksSelector(pass, lhs); sel != nil {
						pass.Reportf(sel.Pos(), "direct write to %s.%s outside the mark fix-up files (%s)", NodeType, MarksField, allowedList())
					}
				}
			case *ast.IncDecStmt:
				if sel := marksSelector(pass, n.X); sel != nil {
					pass.Reportf(sel.Pos(), "direct write to %s.%s outside the mark fix-up files (%s)", NodeType, MarksField, allowedList())
				}
			case *ast.CallExpr:
				fun, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !MutatingMethods[fun.Sel.Name] {
					return true
				}
				if sel := marksSelector(pass, fun.X); sel != nil {
					pass.Reportf(n.Pos(), "%s on a %s mark set outside the mark fix-up files (%s); use the mark/unmark helpers", fun.Sel.Name, NodeType, allowedList())
				}
			}
			return true
		})
	}
	return nil
}

// marksSelector unwraps index/paren/star expressions and returns the
// node.marks selector at the root of e, or nil.
func marksSelector(pass *analysis.Pass, e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if x.Sel.Name != MarksField {
				return nil
			}
			base := pass.TypeOf(x.X)
			n := analysis.NamedOf(base)
			if n == nil {
				return nil
			}
			obj := n.Origin().Obj()
			if obj.Name() == NodeType && obj.Pkg() == pass.Pkg {
				return x
			}
			return nil
		default:
			return nil
		}
	}
}

func allowedList() string {
	names := make([]string, 0, len(AllowedFiles))
	for n := range AllowedFiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
