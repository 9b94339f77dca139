package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The throwaway module the driver test vets. Its one real violation
// sits in a _test.go file, which only the go command hands the tool,
// and a.go holds one stale suppression.
const (
	modFile = "module vetdriver\n\ngo 1.22\n"

	staleIgnore = " //predmatchvet:ignore guardedby the lock is held, so this silences nothing"

	srcFile = `package a

import "sync"

type T struct {
	mu sync.Mutex
	n  int // guarded-by: mu
}

func (t *T) Inc() {
	t.mu.Lock()
	t.n++` + staleIgnore + `
	t.mu.Unlock()
}
`

	testFile = `package a

import "testing"

func TestInc(t *testing.T) {
	var x T
	x.n = 1
	x.Inc()
}
`
)

func TestVetDriver(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "predmatchvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	mod := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", modFile)
	write("a.go", srcFile)
	write("a_test.go", testFile)

	code, out := run(t, mod, "go", "vet", "-vettool="+bin, "./...")
	if code != 1 {
		t.Fatalf("go vet -vettool on the seeded module: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"a_test.go:7:2: guardedby: ",
		"a.go:12:8: predmatchvet: stale suppression: no guardedby diagnostic",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("go vet -vettool output lacks %q:\n%s", want, out)
		}
	}

	// Fixed: the stale suppression goes, and the test writes under mu.
	write("a.go", strings.Replace(srcFile, staleIgnore, "", 1))
	write("a_test.go", strings.Replace(testFile, "\tx.n = 1\n", "\tx.mu.Lock()\n\tx.n = 1\n\tx.mu.Unlock()\n", 1))
	if code, out := run(t, mod, "go", "vet", "-vettool="+bin, "./..."); code != 0 {
		t.Fatalf("go vet -vettool on the fixed module: exit %d, want 0\n%s", code, out)
	}

	// Package arguments are the go command's to expand: run directly,
	// the binary names the vet command and refuses.
	code, out = run(t, mod, bin, "./...")
	if code != 2 {
		t.Fatalf("predmatchvet ./...: exit %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "go vet -vettool=") {
		t.Errorf("predmatchvet ./... output does not name the go vet command:\n%s", out)
	}
}

// run executes name with args in dir and returns its exit status and
// combined output. A failure to start it at all fails the test.
func run(t *testing.T, dir, name string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String()
	}
	t.Fatalf("%s: %v", name, err)
	return 0, ""
}
