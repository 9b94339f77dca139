// Command predmatch runs database-rule scripts through the predicate
// matching engine: declare relations and indexes, define prioritized
// rules (with arithmetic set actions and disjunctive conditions) and
// two-relation joinrules, stream tuple mutations, run planned selects,
// and watch rules fire. The matching strategy is selectable, covering
// the paper's baselines and the IBS-tree scheme. See internal/script for
// the statement grammar.
//
// Usage:
//
//	predmatch [-matcher NAME] [script.pm ...]
//
// NAME is any strategy registered in internal/strategy (run -h for the
// current list: the paper's IBS scheme, the HINT flat hierarchy, and
// the baseline and serving-layer matchers).
//
// With no script arguments, statements are read from standard input.
// Run with -demo for a built-in scenario based on the paper's EMP
// examples.
//
// Five subcommands talk to a running or durable daemon instead of
// executing a script:
//
//	predmatch stats [-addr 127.0.0.1:7341]
//	predmatch backup [-addr 127.0.0.1:7341] [-o file]
//	predmatch restore [-data-dir dir] snapshot.ckpt
//	predmatch promote [-addr 127.0.0.1:7341]
//	predmatch trace [-admin 127.0.0.1:7342] [-id trace-id] [-slow] [-json]
//
// stats prints prefilter, shard, IBS-tree, relation, WAL,
// replication and per-connection statistics (the remote form of the
// script interpreter's local `stats` statement). backup forces a
// checkpoint on a running daemon; restore inspects a checkpoint file
// and optionally seeds a fresh data directory from it (see
// docs/DURABILITY.md). promote turns a replication follower into a
// leader (see docs/REPLICATION.md). trace pulls request traces from
// the daemon's flight recorder over the admin listener (see
// docs/OBSERVABILITY.md, "Tracing").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"predmatch/internal/matcher"
	"predmatch/internal/pred"
	"predmatch/internal/script"
	"predmatch/internal/storage"
	"predmatch/internal/strategy"
)

const demo = `
# Demo: the paper's EMP relation and example predicates as live rules.
relation emp (name string, age int, salary int, dept string)
index emp salary

rule low_paid_senior on insert to emp \
  when salary < 20000 and age > 50 do log 'flag: low paid senior'
rule mid_band on insert, update to emp \
  when salary between 20000 and 30000 do log 'mid salary band'
rule odd_shoe on insert to emp \
  when isodd(age) and dept = 'shoe' do log 'odd-aged shoe dept'
rule no_kids on insert to emp \
  when age < 16 do raise 'labor law violation'

insert emp ('ada', 52, 18000, 'deli')
insert emp ('bob', 33, 25000, 'shoe')
insert emp ('cyd', 41, 90000, 'toy')
update emp 3 ('cyd', 41, 28000, 'toy')

# Queries run through the System R style planner.
select emp where salary between 20000 and 30000
select emp where age > 50 or isodd(age)

# A two-relation rule through the two-layer network (selection + join).
relation dept (dname string, budget int)
joinrule underfunded on emp, dept \
  when salary > 25000 and emp.dept = dname and budget < 100000 \
  do log 'well-paid employee in underfunded department'
insert dept ('toy', 50000)

dump emp
stats
`

// matcherFactory resolves a strategy name through the shared registry
// (internal/strategy) — the same list predmatchd and the conformance
// sweep consume, so the flag help can never go stale.
func matcherFactory(name string) (func(*storage.DB, *pred.Registry) matcher.Matcher, error) {
	in, ok := strategy.Lookup(name)
	if !ok {
		return nil, strategy.UnknownErr(name)
	}
	return func(db *storage.DB, funcs *pred.Registry) matcher.Matcher {
		return in.New(db.Catalog(), funcs)
	}, nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "stats":
			os.Exit(runStats(os.Args[2:]))
		case "backup":
			os.Exit(runBackup(os.Args[2:]))
		case "restore":
			os.Exit(runRestore(os.Args[2:]))
		case "promote":
			os.Exit(runPromote(os.Args[2:]))
		case "trace":
			os.Exit(runTrace(os.Args[2:]))
		}
	}
	matcherName := flag.String("matcher", "ibs", strategy.FlagHelp())
	runDemo := flag.Bool("demo", false, "run the built-in demo scenario and exit")
	flag.Parse()

	mk, err := matcherFactory(*matcherName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predmatch:", err)
		os.Exit(2)
	}
	in := script.New(os.Stdout, script.WithMatcher(mk))

	if *runDemo {
		if err := in.Run(strings.NewReader(demo)); err != nil {
			fmt.Fprintln(os.Stderr, "predmatch:", err)
			os.Exit(1)
		}
		return
	}

	sources := flag.Args()
	if len(sources) == 0 {
		if err := in.Run(os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, "predmatch:", err)
			os.Exit(1)
		}
		return
	}
	for _, path := range sources {
		var r io.ReadCloser
		if path == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "predmatch:", err)
				os.Exit(1)
			}
			r = f
		}
		err := in.Run(r)
		r.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "predmatch: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}
