// Package walack defines an analyzer enforcing the server's
// log-before-ack durability contract (docs/DURABILITY.md): a mutation
// or DDL handler may only return a success response after the change
// has been appended to the WAL, and may only wait for durability
// (commit) on a record that was actually appended. A path that acks
// first is exactly the bug class the PR 5 crash test exists to catch —
// a client that saw "ok" for a write a kill -9 then erases.
//
// The check is control-flow aware, built on the framework's CFG
// dominator facility. Within the server package, a function is covered
// when it calls an apply, append, or commit helper (ApplyCalls,
// AppendCalls, CommitCalls). In a covered function:
//
//   - every return of a wire.Message that is not a direct error
//     constructor call (ErrorCalls) must be dominated by a WAL append —
//     the append executes on every path from entry to that ack;
//   - every commit call must be dominated by a WAL append.
//
// Functions whose own name is an append or commit helper are exempt:
// they are the wrappers the contract is expressed through. Functions
// that apply state but delegate logging to their caller (applyMutation
// and applyRecord, under `//predmatchvet:holds mu`) return no
// wire.Message and commit nothing, so they have nothing to check. The
// function that calls them and then acks is covered: the DDL handlers'
// shared command helper (applyRecord, logCommand, commit, ack) and
// handleMutation. The handlers themselves only build a record and
// return command's response.
//
// The analysis is intraprocedural and name-based: it recognizes the
// helper calls by callee name. That deliberately simple rule encodes
// the real handler shape (apply under mu, append under mu, commit off
// mu, then ack) and catches the real regressions: an early-returned
// ack, an append moved into one branch, a commit hoisted above the
// append.
package walack

import (
	"go/ast"
	"go/token"

	"predmatch/internal/analysis"
)

// Configuration. Defaults describe the real repository; the fixture
// vendors miniature packages under the same import paths.
var (
	// ServerPkg is the only package the analyzer inspects.
	ServerPkg = "predmatch/internal/server"
	// WirePkg/MessageType name the response type whose success returns
	// are acks.
	WirePkg     = "predmatch/internal/wire"
	MessageType = "Message"
	// ApplyCalls are the helpers that mutate durable state; calling one
	// makes a function subject to the log-before-ack check.
	ApplyCalls = map[string]bool{
		"applyRecord": true, "applyMutation": true, "declareRelation": true,
		"addDirectPred": true, "DefineRule": true, "DropRule": true, "CreateIndex": true,
	}
	// AppendCalls put a record in the log.
	AppendCalls = map[string]bool{
		"logCommand": true, "logPending": true, "Append": true, "AppendExact": true,
	}
	// CommitCalls wait for appended records to become durable.
	CommitCalls = map[string]bool{"commit": true, "Commit": true}
	// ErrorCalls construct error responses; returning one directly is
	// not an ack.
	ErrorCalls = map[string]bool{"errMsg": true, "notLeaderMsg": true, "minSeqErr": true}
)

// Analyzer is the walack analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "walack",
	Doc:  "log-before-ack: server success responses and commits must be dominated by a WAL append",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() != ServerPkg {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if AppendCalls[fd.Name.Name] || CommitCalls[fd.Name.Name] {
				continue // the wrappers the contract is built from
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// funcCalls are the contract-relevant call sites of one function.
type funcCalls struct {
	applies []token.Pos
	appends []token.Pos
	commits []token.Pos
	acks    []token.Pos // success wire.Message returns
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	calls := collect(pass, fd)
	if len(calls.applies) == 0 && len(calls.appends) == 0 && len(calls.commits) == 0 {
		return // not a mutation path
	}
	if len(calls.acks) == 0 && len(calls.commits) == 0 {
		return
	}
	cfg := analysis.NewCFG(fd.Body)
	dominated := func(pos token.Pos) bool {
		for _, a := range calls.appends {
			if cfg.Dominates(a, pos) {
				return true
			}
		}
		return false
	}
	for _, ack := range calls.acks {
		if !dominated(ack) {
			pass.Reportf(ack, "success response on a path without a dominating WAL append (log-before-ack): append the record before acking, or return an error constructor")
		}
	}
	for _, c := range calls.commits {
		if !dominated(c) {
			pass.Reportf(c, "commit without a dominating WAL append: nothing was logged on some path to this wait")
		}
	}
}

// collect walks the function body — not descending into function
// literals, whose flow the CFG does not model — recording apply,
// append, and commit calls plus ack returns.
func collect(pass *analysis.Pass, fd *ast.FuncDecl) *funcCalls {
	calls := &funcCalls{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			switch name := calleeName(n); {
			case ApplyCalls[name]:
				calls.applies = append(calls.applies, n.Pos())
			case AppendCalls[name]:
				calls.appends = append(calls.appends, n.Pos())
			case CommitCalls[name]:
				calls.commits = append(calls.commits, n.Pos())
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if !analysis.IsNamed(pass.TypeOf(res), WirePkg, MessageType) {
					continue
				}
				if call, ok := res.(*ast.CallExpr); ok && ErrorCalls[calleeName(call)] {
					continue
				}
				calls.acks = append(calls.acks, n.Pos())
			}
		}
		return true
	})
	return calls
}

// calleeName is the called function or method name, or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
