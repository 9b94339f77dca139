package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"predmatch/internal/client"
	"predmatch/internal/wal"
)

// runBackup implements `predmatch backup`: ask a running predmatchd to
// write a durable checkpoint covering everything acked so far, and
// report where it landed. With -o, the checkpoint is also copied to a
// local file — which assumes the CLI shares a filesystem with the
// daemon, the usual shape for an on-host ops tool.
func runBackup(args []string) int {
	fs := flag.NewFlagSet("predmatch backup", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7341", "predmatchd address")
	out := fs.String("o", "", "copy the checkpoint to this file (requires a shared filesystem with the daemon)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: predmatch backup [-addr host:port] [-o file]")
		return 2
	}
	c, err := client.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predmatch backup: dial %s: %v\n", *addr, err)
		return 1
	}
	defer c.Close()
	info, err := c.Backup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "predmatch backup: %v\n", err)
		return 1
	}
	fmt.Printf("checkpoint %s (seq %d, %d bytes)\n", info.Path, info.Seq, info.Bytes)
	if *out == "" {
		return 0
	}
	if err := copyFile(info.Path, *out); err != nil {
		fmt.Fprintf(os.Stderr, "predmatch backup: copy to %s: %v\n", *out, err)
		return 1
	}
	// Validate the copy end to end: a backup you cannot restore is not
	// a backup.
	if _, err := wal.ReadSnapshot(*out); err != nil {
		fmt.Fprintf(os.Stderr, "predmatch backup: copied file failed validation: %v\n", err)
		return 1
	}
	fmt.Printf("copied to %s\n", *out)
	return 0
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = io.Copy(out, in); err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// runRestore implements `predmatch restore`: validate a checkpoint
// file and print what it contains; with -data-dir, also install it as
// the seed state of a fresh data directory for the next predmatchd
// start. Restoring refuses a directory that already holds WAL state.
func runRestore(args []string) int {
	fs := flag.NewFlagSet("predmatch restore", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "install the snapshot into this (empty) data directory; omit to just inspect")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: predmatch restore [-data-dir dir] snapshot.ckpt")
		return 2
	}
	path := fs.Arg(0)
	snap, err := wal.ReadSnapshot(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predmatch restore: %v\n", err)
		return 1
	}
	printSnapshot(os.Stdout, snap)
	if *dataDir == "" {
		return 0
	}
	if _, err := wal.InstallSnapshot(*dataDir, path); err != nil {
		fmt.Fprintf(os.Stderr, "predmatch restore: %v\n", err)
		return 1
	}
	fmt.Printf("installed into %s; start predmatchd with -data-dir %s to serve it\n", *dataDir, *dataDir)
	return 0
}

// printSnapshot renders a checkpoint summary in the stats table style.
func printSnapshot(w io.Writer, snap *wal.Snapshot) {
	fmt.Fprintf(w, "snapshot seq %d", snap.Seq)
	if snap.TakenUnixNano > 0 {
		fmt.Fprintf(w, ", taken %s", time.Unix(0, snap.TakenUnixNano).UTC().Format(time.RFC3339))
	}
	fmt.Fprintf(w, "\n")
	fmt.Fprintf(w, "relations:\n")
	for _, rel := range snap.Relations {
		fmt.Fprintf(w, "  %-12s %6d rows  next id %-6d", rel.Name, len(rel.Rows), rel.NextID)
		for i, a := range rel.Attrs {
			if i > 0 {
				fmt.Fprintf(w, ", ")
			} else {
				fmt.Fprintf(w, " (")
			}
			fmt.Fprintf(w, "%s %s", a.Name, a.Type)
		}
		if len(rel.Attrs) > 0 {
			fmt.Fprintf(w, ")")
		}
		fmt.Fprintf(w, "\n")
	}
	if len(snap.Rules) > 0 {
		fmt.Fprintf(w, "rules:\n")
		for _, src := range snap.Rules {
			fmt.Fprintf(w, "  %s\n", src)
		}
	}
	if len(snap.Preds) > 0 {
		fmt.Fprintf(w, "direct predicates: %d (next id %d)\n", len(snap.Preds), snap.NextPredID)
	}
}
