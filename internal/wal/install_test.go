//go:build unix

package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestInstallSnapshotReadsSourceOnce restores from a named pipe that
// hands its first reader one valid checkpoint and any later reader a
// different valid one, so the source changes as soon as it has been
// read and validated. The data directory must receive exactly the bytes
// that were validated, under the sequence they carry.
func TestInstallSnapshotReadsSourceOnce(t *testing.T) {
	l := openEmpty(t, testOptions(t, SyncOff))
	defer l.Close()
	var versions [][]byte
	for _, seq := range []uint64{7, 9} {
		path, _, err := l.WriteSnapshot(testSnapshot(seq))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, raw)
	}

	src := filepath.Join(t.TempDir(), "backup.ckpt")
	if err := syscall.Mkfifo(src, 0o600); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- servePipe(src, versions[0], versions[1], stop) }()
	dir := filepath.Join(t.TempDir(), "restored")
	snap, err := InstallSnapshot(dir, src)
	close(stop)
	if serr := <-served; serr != nil {
		t.Fatal(serr)
	}
	if err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if snap.Seq != 7 {
		t.Fatalf("InstallSnapshot reported seq %d, want 7", snap.Seq)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotName(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, versions[0]) {
		t.Fatal("the installed checkpoint is not the one that was validated")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("restored directory holds %d entries, want the one checkpoint", len(entries))
	}
}

// servePipe writes first to the named pipe's first reader. Then, until
// stop closes, it writes changed to the next reader that opens the pipe
// after the first has closed it.
func servePipe(path string, first, changed []byte, stop <-chan struct{}) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0) // blocks until a reader opens
	if err != nil {
		return err
	}
	_, err = f.Write(first)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	firstClosed := false
	for err == nil {
		select {
		case <-stop:
			return nil
		default:
		}
		// A non-blocking open for writing fails with ENXIO while no
		// reader has the pipe open.
		f, err = os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0)
		if errors.Is(err, syscall.ENXIO) {
			firstClosed, err = true, nil
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			return err
		}
		if !firstClosed {
			// Still the first reader: closing hands it its end of file.
			err = f.Close()
			time.Sleep(time.Millisecond)
			continue
		}
		_, err = f.Write(changed)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return err
}
