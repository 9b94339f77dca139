package server

import (
	"testing"

	"predmatch/internal/pred"
	"predmatch/internal/wire"
)

// TestReaderScratchStaysSmall: a reader keeps its tuple decode scratch
// across requests that carry no tuple, and its match scratch across
// requests, but drops them once one large request grew them past
// wire.RetainBytes, as it drops a grown encode buffer.
func TestReaderScratchStaysSmall(t *testing.T) {
	batch := func(n int) []wire.Tuple {
		out := make([]wire.Tuple, n)
		for i := range out {
			out[i] = make(wire.Tuple, 15)
		}
		return out
	}
	var sc scratch
	sc.release(&wire.Request{Tuple: make(wire.Tuple, 15), Tuples: batch(64)})
	sc.ids = make([]pred.ID, 0, 64)
	sc.release(&wire.Request{}) // a request with no tuple
	var req wire.Request
	sc.lend(&req)
	if cap(req.Tuple) != 15 || cap(req.Tuples) != 64 || cap(sc.ids) != 64 {
		t.Fatalf("scratch after a request with no tuple: %d / %d / %d, want 15 / 64 / 64",
			cap(req.Tuple), cap(req.Tuples), cap(sc.ids))
	}
	sc.release(&wire.Request{Tuples: batch(wire.RetainBytes / 40 / 15)})
	if sc.tuple != nil || sc.batch != nil || sc.ids != nil {
		t.Fatalf("a decode scratch past RetainBytes kept: %d / %d / %d", cap(sc.tuple), cap(sc.batch), cap(sc.ids))
	}
	sc.ids = make([]pred.ID, 0, wire.RetainBytes/8+1)
	sc.release(&wire.Request{})
	if sc.ids != nil {
		t.Fatalf("a match scratch past RetainBytes kept: %d IDs", cap(sc.ids))
	}
}
