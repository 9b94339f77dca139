package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestLineReader(t *testing.T) {
	big := strings.Repeat("x", 200<<10)
	input := "one\n\n two \r\n" + big + "\nafter\nlast"
	for name, src := range map[string]io.Reader{
		"whole":    strings.NewReader(input),
		"bytewise": iotest.OneByteReader(strings.NewReader(input)),
		"halves":   iotest.HalfReader(strings.NewReader(input)),
	} {
		lr := NewLineReader(src, MaxLineBytes)
		for i, want := range []string{"one", "", " two \r", big, "after", "last"} {
			got, err := lr.Next()
			if err != nil || string(got) != want {
				t.Fatalf("%s: line %d = %.20q, %v; want %.20q", name, i, got, err, want)
			}
		}
		if _, err := lr.Next(); err != io.EOF {
			t.Fatalf("%s: after the last line: %v, want EOF", name, err)
		}
		// The 200 KiB line's buffer is let go the first time the reader
		// has to read with nothing left in it, which byte-at-a-time input
		// makes the very next line.
		if name == "bytewise" && cap(lr.buf) > RetainBytes {
			t.Errorf("reader retains a %d-byte buffer", cap(lr.buf))
		}
	}
}

func TestLineReaderLimit(t *testing.T) {
	// At the limit passes, one byte more fails — terminated or not, and
	// without waiting for the rest of the line.
	ok := strings.Repeat("a", 64)
	lr := NewLineReader(strings.NewReader(ok+"\n"+ok+"b\n"), 64)
	if got, err := lr.Next(); err != nil || string(got) != ok {
		t.Fatalf("line at the limit: %q, %v", got, err)
	}
	if _, err := lr.Next(); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("line above the limit: %v", err)
	}
	endless := io.MultiReader(bytes.NewReader(bytes.Repeat([]byte{'x'}, MaxLineBytes+1)), neverReader{})
	if _, err := NewLineReader(endless, MaxLineBytes).Next(); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("unterminated line above the limit: %v", err)
	}
}

// neverReader fails the test's premise if it is read: the limit must
// trip on what already arrived.
type neverReader struct{}

func (neverReader) Read([]byte) (int, error) { panic("read past an over-long line") }

func TestLineReaderErrorAfterPartialLine(t *testing.T) {
	boom := errors.New("boom")
	lr := NewLineReader(io.MultiReader(strings.NewReader("a\npartial"), iotest.ErrReader(boom)), 64)
	for _, want := range []string{"a", "partial"} {
		if got, err := lr.Next(); err != nil || string(got) != want {
			t.Fatalf("line = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := lr.Next(); err != boom {
		t.Fatalf("after the partial line: %v, want boom", err)
	}
}

func TestLineReaderHasLine(t *testing.T) {
	lr := NewLineReader(strings.NewReader("a\nb\npartial"), 64)
	if lr.HasLine() {
		t.Fatal("HasLine before any read")
	}
	for _, want := range []bool{true, false} {
		if _, err := lr.Next(); err != nil {
			t.Fatal(err)
		}
		if got := lr.HasLine(); got != want {
			t.Fatalf("HasLine = %v, want %v", got, want)
		}
	}
}
