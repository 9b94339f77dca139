package trace

import (
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRecorderConcurrency hammers every concurrent surface of the
// tracer at once — span creation/ending across goroutines (including
// ending a child from a different goroutine than its siblings, the
// group-commit shape), slow-trace synthesis, ring snapshots and both
// renderers — and then verifies the package leaked no goroutines. The
// tracer spawns none by design (the recorder is passive memory, not a
// collector pipeline); this test keeps it that way. Run with -race.
func TestRecorderConcurrency(t *testing.T) {
	before := runtime.NumGoroutine()

	tr := New(Config{SampleEvery: 2, Slow: 500 * time.Microsecond, Capacity: 32, SlowCapacity: 8})
	const workers = 8
	const iters = 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case tr.Sampled():
					sp := tr.Start("server.op")
					sp.SetStr("rel", "emp")
					child := sp.Child("shard.stab")
					child.SetInt("results", int64(i))
					// End the child from another goroutine, like the
					// off-mutex group-commit span does.
					done := make(chan struct{})
					go func() { child.End(); close(done) }()
					<-done
					sp.End()
				case i%3 == 0:
					tr.RecordSlow("server.slowop", time.Now(), time.Millisecond)
				default:
					sp := tr.Join("follower.apply", uint64(w*iters+i+1))
					sp.Child("wal.append").End()
					sp.End()
				}
			}
		}(w)
	}
	// Concurrent reader: the /traces handler.
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			WriteText(io.Discard, tr.Traces())
			WriteJSON(io.Discard, tr.SlowTraces())
		}
	}()
	wg.Wait()
	close(stop)
	rd.Wait()

	if got := tr.Traces(); len(got) == 0 {
		t.Error("no traces recorded by the hammer")
	}
	if got := tr.SlowTraces(); len(got) == 0 {
		t.Error("no slow traces recorded by the hammer")
	}

	// Goroutine-leak check: allow the runtime a moment to retire the
	// worker goroutines, then require the count back at baseline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
