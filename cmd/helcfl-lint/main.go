// Command helcfl-lint runs the in-tree static-analysis suite
// (internal/lint) over the module: the determinism, map-order,
// float-comparison, durability, context-flow, span-lifecycle, and
// lock-discipline invariants the repo's bit-identity, crash-recovery, and
// clean-shutdown guarantees rest on.
//
// Usage:
//
//	helcfl-lint [-show-suppressed] [-stale] [-json] [-list] [./...]
//
// The only supported pattern is the whole module (./..., the default); the
// tool walks up from the working directory to go.mod and lints every
// package. -stale additionally fails on //helcfl:allow directives that no
// longer suppress anything, so suppressions cannot outlive the code they
// excused. -json writes the full findings list (suppressed ones included,
// marked) as one JSON document on stdout for CI artifacts and tooling.
// Exit status: 0 clean, 1 findings, 2 load failure. Suppress a finding with
// a justified directive on or directly above the offending line:
//
//	//helcfl:allow(rule) reason
//
// See docs/STATIC_ANALYSIS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"helcfl/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the machine-readable form of one finding.
type jsonFinding struct {
	Rule       string `json:"rule"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

// jsonReport is the -json output document.
type jsonReport struct {
	Packages int           `json:"packages"`
	Failed   bool          `json:"failed"`
	Findings []jsonFinding `json:"findings"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("helcfl-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	showSuppressed := fs.Bool("show-suppressed", false, "also print findings silenced by //helcfl:allow directives, with their reasons")
	staleMode := fs.Bool("stale", false, "also fail on //helcfl:allow directives that suppress nothing")
	jsonOut := fs.Bool("json", false, "write all findings (suppressed included) as JSON on stdout")
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("C", ".", "change to this directory before resolving the module")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	for _, pat := range fs.Args() {
		if pat != "./..." {
			fmt.Fprintf(stderr, "helcfl-lint: unsupported pattern %q (only ./... is supported)\n", pat)
			return 2
		}
	}

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "helcfl-lint: %v\n", err)
		return 2
	}
	pkgs, err := lint.NewLoader().LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "helcfl-lint: %v\n", err)
		return 2
	}
	var findings []lint.Finding
	if *staleMode {
		findings = lint.RunWithStale(pkgs, lint.Analyzers())
	} else {
		findings = lint.Run(pkgs, lint.Analyzers())
	}

	failed := false
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			if *showSuppressed && !*jsonOut {
				fmt.Fprintln(stdout, f)
			}
			continue
		}
		failed = true
		if !*jsonOut {
			fmt.Fprintln(stdout, f)
		}
	}
	if *jsonOut {
		rep := jsonReport{Packages: len(pkgs), Failed: failed, Findings: make([]jsonFinding, 0, len(findings))}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				Rule: f.Rule, File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Message: f.Message, Suppressed: f.Suppressed, Reason: f.Reason,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "helcfl-lint: encode json: %v\n", err)
			return 2
		}
	}
	if failed {
		fmt.Fprintf(stderr, "helcfl-lint: findings in %d package(s); fix them or annotate with //helcfl:allow(rule) reason\n", len(pkgs))
		return 1
	}
	if *showSuppressed || suppressed > 0 {
		fmt.Fprintf(stderr, "helcfl-lint: ok (%d package(s), %d suppressed finding(s))\n", len(pkgs), suppressed)
	} else {
		fmt.Fprintf(stderr, "helcfl-lint: ok (%d package(s))\n", len(pkgs))
	}
	return 0
}
