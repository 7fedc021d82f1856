// Command smtlint enforces the project's determinism, instrumentation,
// and concurrency-correctness invariants with a zero-dependency static
// analysis built on the standard library's go/ast, go/parser, and
// go/types (see internal/lint for the rules and their rationale).
//
// Usage:
//
//	smtlint ./...       # lint every package in the module
//	smtlint -json ./... # machine-readable findings
//	smtlint -rules      # list the rules and what they enforce
//
// Stale //smtlint:ignore directives are themselves findings (rule
// "unusedignore"). `make lint` runs this command, and TestRepoIsClean
// in internal/lint runs the same lint.Drive in-process.
//
// Exit status: 0 with no findings, 1 with findings, 2 on usage or load
// errors. Findings print as file:line:col: rule: message, with paths
// relative to the module root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"smthill/internal/lint"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array")
		listRules = flag.Bool("rules", false, "list the lint rules and exit")
	)
	flag.Parse()

	if *listRules {
		for _, r := range lint.DefaultRules() {
			fmt.Printf("%-16s %s\n", r.Name(), r.Doc())
		}
		fmt.Printf("%-16s %s\n", "unusedignore", "//smtlint:ignore directives that suppress nothing are findings themselves")
		return
	}

	// The only supported scope is the whole module: the rules are
	// project invariants, and partial runs would let violations hide in
	// unlinted packages. "./..." (or nothing) is accepted for familiarity.
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "all" {
			fmt.Fprintf(os.Stderr, "smtlint: unsupported pattern %q (smtlint always lints the whole module; use ./...)\n", arg)
			os.Exit(2)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	findings, err := lint.Drive(root)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		type jsonFinding struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
		}
		out := make([]jsonFinding, len(findings))
		for i, f := range findings {
			out[i] = jsonFinding{File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column, Rule: f.Rule, Msg: f.Msg}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "smtlint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smtlint:", err)
	os.Exit(2)
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
