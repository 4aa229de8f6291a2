// Command schedlint is the multichecker for the repository's invariant
// suite: determinism (byte-identical serialized output), hotpath
// (zero-allocation analysis core), ctxflow (context threading on request
// paths), lockcheck (mutex and atomic discipline), and unused (no
// function that only tests reach; whole-module loads only). It exits 0 on a
// clean tree, 1 when findings exist, and 2 on load errors, so CI can use
// it as a hard gate:
//
//	schedlint ./...          # human-readable file:line:col findings
//	schedlint -json ./...    # machine-readable, for diffing runs
//
// See internal/lint/doc.go for the invariants and the //schedlint:
// annotation grammar (ignore escapes, hotpath seeds, deterministic
// package declarations).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dpcpp/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array of {file, line, col, analyzer, message}")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: schedlint [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "schedlint: %v\n", err)
		return 2
	}
	findings, err := lint.Run(prog, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(stderr, "schedlint: %v\n", err)
		return 2
	}
	if *jsonOut {
		if err := lint.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "schedlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "schedlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
