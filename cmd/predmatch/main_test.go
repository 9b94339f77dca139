package main

import (
	"bytes"
	"strings"
	"testing"

	"predmatch/internal/script"
	"predmatch/internal/strategy"
)

func TestMatcherFactory(t *testing.T) {
	for _, name := range strategy.Names() {
		mk, err := matcherFactory(name)
		if err != nil || mk == nil {
			t.Errorf("matcherFactory(%q) = %v", name, err)
		}
	}
	// The comparison-only structures are not served.
	for _, name := range []string{"bogus", "ibs-unbalanced", "segtree", "inttree", "pst", "augtree", "hashseq", "rtree"} {
		if _, err := matcherFactory(name); err == nil {
			t.Errorf("matcherFactory(%q) accepted", name)
		}
	}
}

// TestDemoScript runs the built-in demo through every registered
// strategy; its statements must parse and execute cleanly everywhere.
func TestDemoScript(t *testing.T) {
	for _, name := range strategy.Names() {
		mk, err := matcherFactory(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		in := script.New(&buf, script.WithMatcher(mk))
		if err := in.Run(strings.NewReader(demo)); err != nil {
			t.Fatalf("%s: demo failed: %v\n%s", name, err, buf.String())
		}
		for _, want := range []string{
			"flag: low paid senior",
			"mid salary band",
			"odd-aged shoe dept",
			"well-paid employee in underfunded department",
			"emp: 2 row(s)",
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s: demo output missing %q", name, want)
			}
		}
	}
}
