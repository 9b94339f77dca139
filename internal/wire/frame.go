package wire

import (
	"bytes"
	"errors"
	"io"

	"predmatch/internal/value"
)

// RetainBytes caps the buffers a connection keeps between frames: a
// read or encode buffer that grew past it for one large frame is
// dropped, not reused, so an idle connection holds a few KiB, never the
// 1 MiB its largest frame once needed.
const RetainBytes = 64 << 10

// ErrFrameTooLong is returned by LineReader.Next for a line longer than
// the reader's limit.
var ErrFrameTooLong = errors.New("wire: frame too long")

// LineReader splits a stream into newline-terminated frames through one
// reused buffer.
type LineReader struct {
	src  io.Reader
	max  int
	buf  []byte
	r, w int   // buf[r:w] is read but not yet returned
	err  error // sticky read error, reported once buf[r:w] is used up
}

// NewLineReader reads frames of at most max bytes (terminator excluded)
// from src.
func NewLineReader(src io.Reader, max int) *LineReader {
	return &LineReader{src: src, max: max}
}

// Next returns the next line without its '\n'. The slice points into
// the reader's buffer and is valid until the next call. A final
// unterminated line is returned before the read error that ended it
// (io.EOF for a clean close). A line above the limit fails with
// ErrFrameTooLong as soon as that many bytes arrived without a newline.
func (lr *LineReader) Next() ([]byte, error) {
	scanned := lr.r // buf[lr.r:scanned] holds no newline
	for {
		for i := scanned; i < lr.w; i++ {
			if lr.buf[i] == '\n' {
				line := lr.buf[lr.r:i]
				lr.r = i + 1
				if len(line) > lr.max {
					return nil, ErrFrameTooLong
				}
				return line, nil
			}
		}
		scanned = lr.w
		if lr.w-lr.r > lr.max {
			return nil, ErrFrameTooLong
		}
		if lr.err != nil {
			line := lr.buf[lr.r:lr.w]
			lr.r = lr.w
			if len(line) > 0 {
				return line, nil
			}
			return nil, lr.err
		}
		scanned -= lr.makeRoom()
		n, err := lr.src.Read(lr.buf[lr.w:])
		lr.w += n
		if err != nil {
			lr.err = err
		}
	}
}

// HasLine reports whether a complete line is already buffered, so that
// Next returns it without reading.
func (lr *LineReader) HasLine() bool {
	return bytes.IndexByte(lr.buf[lr.r:lr.w], '\n') >= 0
}

// makeRoom guarantees free space at the end of the buffer: it moves the
// unread bytes to the front, lets go of an over-grown buffer once it is
// empty, and grows a full one. It returns how far the unread bytes moved.
func (lr *LineReader) makeRoom() (shift int) {
	if lr.r == lr.w && cap(lr.buf) > RetainBytes {
		lr.buf = nil
	}
	shift = lr.r
	switch {
	case lr.buf == nil:
		lr.buf = make([]byte, 4096)
	case lr.r > 0:
		copy(lr.buf, lr.buf[lr.r:lr.w])
	case lr.w == len(lr.buf):
		// One byte past the limit is enough to tell a frame is too long.
		size := min(2*len(lr.buf), lr.max+2)
		grown := make([]byte, size)
		copy(grown, lr.buf[:lr.w])
		lr.buf = grown
	}
	lr.r, lr.w = 0, lr.w-shift
	return shift
}

// Scribble overwrites b with a byte no frame holds. It exists for the
// aliasing guards of internal/server and internal/client, which call it
// on a connection's reused buffer the moment the request that used it
// completes: a string or slice still pointing into the buffer then reads
// as garbage in the tests that run with the guard on.
func Scribble(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// ScribbleTuples is Scribble for a request's tuple decode scratch.
func ScribbleTuples(r *Request) {
	scribble := func(t Tuple) {
		t = t[:cap(t)]
		for i := range t {
			t[i] = value.String_("scribbled")
		}
	}
	scribble(r.Tuple)
	for _, t := range r.Tuples[:cap(r.Tuples)] {
		scribble(t)
	}
}
