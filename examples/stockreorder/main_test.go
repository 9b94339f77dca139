package main

import (
	"os"
	"strings"
	"testing"
)

// TestLoggerOutputGolden holds the lines the two designs' log actions
// hand their logger — rule, message, event and tuple image, in firing
// order — to the file recorded before log actions stopped formatting
// for engines without a logger.
func TestLoggerOutputGolden(t *testing.T) {
	items, stream := makeItems(), sales()
	_, naive := runNaive(items, stream)
	_, field := runField(items, stream)
	got := "design 1\n" + strings.Join(naive, "\n") + "\ndesign 2\n" + strings.Join(field, "\n") + "\n"
	want, err := os.ReadFile("testdata/reorders.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("logger output changed:\n%s\nwant:\n%s", got, want)
	}
}
