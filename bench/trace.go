package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"predmatch/internal/obs"
)

// span is one timed call into a layer. Spans of one generated input
// share op; parent names the rung above (the caller's layer).
type span struct {
	name       string
	start, end int64 // ns since the trace began
	op         int
	parent     string
}

// tracing is the in-memory recorder of a traced run. Every method is a
// no-op on a nil receiver, which is what untraced rounds pass.
type tracing struct {
	t0    time.Time
	spans []span
	// clockNS is what an empty span measures: the cost of the two clock
	// reads, subtracted from every rung's median.
	clockNS float64
}

func newTracing() *tracing { return &tracing{t0: time.Now()} }

// registry returns a fresh metrics registry for one program instance
// of a traced round (nil when untraced, which leaves the program
// uninstrumented). Fresh because an instance's scrape-time gauges can
// be registered only once.
func (t *tracing) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return obs.NewRegistry()
}

// attach makes the drivers keep each sample's start time.
func (t *tracing) attach(ds []*driver) {
	if t == nil {
		return
	}
	for _, d := range ds {
		d.t0 = t.t0
		d.starts = make([]int64, 0, d.samples)
		if d.side != nil {
			d.sideStarts = make([]int64, 0, cap(d.sideLat))
		}
	}
}

// collect turns the drivers' measured samples into spans.
func (t *tracing) collect(ds []*driver, mainName, sideName string) {
	if t == nil {
		return
	}
	for _, d := range ds {
		for i, s := range d.starts {
			t.spans = append(t.spans, span{mainName, s, s + d.lat[i]*int64(d.block), d.warm() + i, ""})
		}
		for i, s := range d.sideStarts {
			t.spans = append(t.spans, span{sideName, s, s + d.sideLat[i], i, ""})
		}
	}
}

// begin and end bracket one ladder call.
func (t *tracing) begin() int64 { return int64(time.Since(t.t0)) }

func (t *tracing) end(name string, start int64, op int, parent string) {
	t.spans = append(t.spans, span{name, start, int64(time.Since(t.t0)), op, parent})
}

// reserve grows the span buffer ahead of a rung, so appends inside the
// rung never allocate (the rungs count allocations).
func (t *tracing) reserve(n int) {
	if cap(t.spans)-len(t.spans) < n {
		t.spans = append(make([]span, 0, len(t.spans)+n+n/2), t.spans...)
	}
}

// medianNS is the median duration of the spans called name, less the
// clock's own cost: how every per-layer timing is derived, here and by
// anyone reading the span file.
func (t *tracing) medianNS(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.name == name {
			ds = append(ds, float64(s.end-s.start))
		}
	}
	return median(ds) - t.clockNS
}

// write stores the spans as JSON at dir/<workload>.trace.json.
func (t *tracing) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"clock_ns\":%g,\"spans\":[\n", t.clockNS)
	var b []byte
	for i, s := range t.spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, `{"name":"`...)
		b = append(b, s.name...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"op_id":`...)
		b = strconv.AppendInt(b, int64(s.op), 10)
		b = append(b, `,"parent":"`...)
		b = append(b, s.parent...)
		b = append(b, `"}`...)
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
