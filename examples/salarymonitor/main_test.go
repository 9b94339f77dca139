package main

import (
	"io"
	"os"
	"testing"
)

// TestOutputGolden runs the example with its standard output captured:
// every log action's line, the rejected hire and the index summary must
// read as they did when testdata/output.golden was recorded.
func TestOutputGolden(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("output changed:\n%s\nwant:\n%s", got, want)
	}
}
