// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface used by this repository's
// static checkers (cmd/predmatchvet). The repo deliberately has no
// module dependencies, so instead of pulling in x/tools the package
// provides the three pieces the checkers need:
//
//   - the Analyzer / Pass / Diagnostic API (analysis.go);
//   - a type-checker front end over the standard library's gc
//     export-data importer (load.go);
//   - a `go vet -vettool` driver speaking cmd/go's vet .cfg protocol
//     (run.go, vet.go). It is the only driver: the go command hands it
//     every package and test variant, so `_test.go` files are vetted
//     too.
//
// The sibling package analysistest runs an analyzer over a fixture tree
// and checks its diagnostics against `// want` comments, mirroring
// x/tools' analysistest.
//
// # Suppression
//
// Every diagnostic can be silenced at the reporting site with a comment
// on the flagged line or the line directly above it:
//
//	//predmatchvet:ignore <analyzer> <reason>
//
// where <analyzer> is the analyzer's name or "all". The reason is
// mandatory prose; suppressions without one are themselves reported,
// and so is a suppression that no longer silences any diagnostic of an
// analyzer that ran (stale suppressions cannot rot in place).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments. It must be a valid identifier.
	Name string
	// Doc is the analyzer's help text; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass provides one analyzer run with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	supp   *suppressions
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a suppression comment covers
// that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.supp != nil && p.supp.covers(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// suppressionPrefix starts every inline suppression comment.
const suppressionPrefix = "predmatchvet:ignore"

// suppEntry is one parsed //predmatchvet:ignore directive. used is set
// the first time the directive silences a diagnostic, so directives
// that silence nothing can be reported as stale after a run.
type suppEntry struct {
	analyzer string // named analyzer, or "all"
	pos      token.Position
	used     bool
}

// suppressions indexes //predmatchvet:ignore comments by file and line.
type suppressions struct {
	// byLine maps filename -> line -> directives on that line.
	byLine map[string]map[int][]*suppEntry
}

// covers reports whether a suppression on pos's line or the line above
// names the analyzer (or "all"), marking every matching directive used.
func (s *suppressions) covers(analyzer string, pos token.Position) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	covered := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, e := range lines[line] {
			if e.analyzer == analyzer || e.analyzer == "all" {
				e.used = true
				covered = true
			}
		}
	}
	return covered
}

// stale reports every unused directive whose analyzer was among those
// run — a directive naming an analyzer outside this invocation may
// still be load-bearing (analysistest runs one analyzer at a time), but
// one whose analyzer ran and reported nothing here only hides future
// regressions.
func (s *suppressions) stale(ran map[string]bool, report func(Diagnostic)) {
	for _, lines := range s.byLine {
		for _, entries := range lines {
			for _, e := range entries {
				if e.used || (e.analyzer != "all" && !ran[e.analyzer]) {
					continue
				}
				what := e.analyzer + " diagnostic"
				if e.analyzer == "all" {
					what = "diagnostic"
				}
				report(Diagnostic{
					Pos:      e.pos,
					Analyzer: "predmatchvet",
					Message:  fmt.Sprintf("stale suppression: no %s is reported here (delete the //%s comment)", what, suppressionPrefix),
				})
			}
		}
	}
}

// collectSuppressions scans the files' comments for suppression
// directives. Malformed directives (no analyzer, or no reason) are
// reported as badDirective diagnostics so they cannot silently rot.
func collectSuppressions(fset *token.FileSet, files []*ast.File, badDirective func(Diagnostic)) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]*suppEntry)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, suppressionPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, suppressionPrefix))
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					badDirective(Diagnostic{
						Pos:      pos,
						Analyzer: "predmatchvet",
						Message:  fmt.Sprintf("malformed suppression %q: need %q", text, suppressionPrefix+" <analyzer> <reason>"),
					})
					continue
				}
				m := s.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]*suppEntry)
					s.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], &suppEntry{analyzer: fields[0], pos: pos})
			}
		}
	}
	return s
}

// Check applies every analyzer to one loaded package and returns the
// surviving diagnostics sorted by position. The vet driver runs it once
// per vet unit, and the analysistest fixture runner once per fixture.
func Check(pkg *Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	supp := collectSuppressions(pkg.Fset, pkg.Files, report)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			report:    report,
			supp:      supp,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
		}
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	supp.stale(ran, report)
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}
