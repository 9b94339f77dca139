package analysis

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Main is the entry point of a multichecker binary driven by
// `go vet -vettool`. The go command invokes it in three shapes:
//
//	predmatchvet -V=full           version handshake
//	predmatchvet -flags            the tool's flag surface (none)
//	predmatchvet [flags] foo.cfg   one vet unit: a package or test variant
//
// Any other arguments, package patterns included, print the usage text
// naming the go vet command.
//
// Exit status: 0 clean, 1 findings, 2 usage or internal error.
func Main(analyzers ...*Analyzer) {
	args := os.Args[1:]

	// cmd/go probes the tool's identity and flag surface before using
	// it as a vettool.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			printVersion()
			return
		}
		if a == "-flags" || a == "--flags" {
			// JSON list of tool flags vet may forward; the suite has none.
			fmt.Println("[]")
			return
		}
		if a == "-help" || a == "--help" || a == "-h" {
			usage(os.Stdout, analyzers)
			return
		}
	}

	// A trailing *.cfg argument means cmd/go is driving one vet unit.
	// Ignore any analyzer flags vet forwards; the suite has none.
	n := len(args)
	if n == 0 || !strings.HasSuffix(args[n-1], ".cfg") {
		usage(os.Stderr, analyzers)
		os.Exit(2)
	}
	diags, err := runVetUnit(args[n-1], analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predmatchvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func printVersion() {
	// cmd/go expects `path version <id>` from -V=full and folds the id
	// into its build cache key. The id only needs to change when the
	// tool's behavior does; tie it to the repo's release tag.
	path, err := os.Executable()
	if err != nil {
		path = os.Args[0]
	}
	fmt.Printf("%s version devel predmatchvet-1 buildID=predmatchvet-1\n", path)
}

func usage(w io.Writer, analyzers []*Analyzer) {
	fmt.Fprintf(w, "predmatchvet: machine-checked predmatch invariants\n\n")
	fmt.Fprintf(w, "usage: the go command drives it over packages and their tests:\n")
	fmt.Fprintf(w, "  go build -o predmatchvet ./cmd/predmatchvet\n")
	fmt.Fprintf(w, "  go vet -vettool=$(pwd)/predmatchvet ./...\n\n")
	fmt.Fprintf(w, "analyzers:\n")
	for _, a := range analyzers {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "  %-16s %s\n", a.Name, summary)
	}
	fmt.Fprintf(w, "\nsuppress one finding with `//%s <analyzer> <reason>` on the\nflagged line or the line above it.\n", suppressionPrefix)
}
