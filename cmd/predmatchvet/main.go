// Command predmatchvet is the repository's static-analysis suite: a
// multichecker that machine-checks the concurrency and mark-discipline
// invariants the hot path relies on (see docs/INVARIANTS.md).
//
// The go command drives it over every package and test variant:
//
//	go build -o /tmp/predmatchvet ./cmd/predmatchvet
//	go vet -vettool=/tmp/predmatchvet ./...
//
// Run directly with package arguments, it prints that usage and exits
// 2. Exit status: 0 clean, 1 findings, 2 usage or internal error.
// Findings can be suppressed case by case with
//
//	//predmatchvet:ignore <analyzer> <reason>
//
// on the flagged line or the line above it.
package main

import (
	"predmatch/internal/analysis"
	"predmatch/internal/analysis/atomicpub"
	"predmatch/internal/analysis/guardedby"
	"predmatch/internal/analysis/lockorder"
	"predmatch/internal/analysis/markdiscipline"
	"predmatch/internal/analysis/walack"
	"predmatch/internal/analysis/wireexhaustive"
)

func main() {
	analysis.Main(
		atomicpub.Analyzer,
		guardedby.Analyzer,
		lockorder.Analyzer,
		markdiscipline.Analyzer,
		walack.Analyzer,
		wireexhaustive.Analyzer,
	)
}
