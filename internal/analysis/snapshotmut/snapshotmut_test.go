package snapshotmut_test

import (
	"testing"

	"predmatch/internal/analysis/analysistest"
	"predmatch/internal/analysis/snapshotmut"
)

func TestSnapshotMut(t *testing.T) {
	analysistest.Run(t, "testdata", snapshotmut.Analyzer, "snapmut")
	// The fixture core package seeds the violations only core itself can
	// commit: mutating an index through a View's unexported fields.
	analysistest.Run(t, "testdata", snapshotmut.Analyzer, "predmatch/internal/core")
}
