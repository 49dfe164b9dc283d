// Package lint is helcfl's in-tree static-analysis suite. It mechanically
// enforces the invariants the repo's headline guarantees rest on — the
// bit-identical sim↔deploy conformance, the split-at-any-round resume, and
// a runtime that shuts down and persists cleanly — which would otherwise
// only hold by convention:
//
//   - no wall clock or global math/rand on a deterministic path
//     (nondeterminism),
//   - no unordered map iteration feeding order-sensitive work (maporder),
//   - no exact float equality outside approved tolerance helpers
//     (floatcompare),
//   - fsync-before-rename discipline and no discarded Close/Sync/Flush
//     errors in the persistence layer (durability),
//   - no context-free HTTP requests or sleeps in the network layer
//     (ctxflow),
//   - every started span ended on every path (spanend),
//   - every mutex released on every path and never held across blocking
//     work (lockheld).
//
// Each analyzer catches a plausible mistake in this code that no runtime
// test catches; mutation_test.go plants one per analyzer and requires it
// to be reported.
//
// The framework is written purely against the standard library (go/ast,
// go/parser, go/token, go/types) — no golang.org/x/tools dependency — with
// its own loader (load.go) and an analysistest-style corpus harness
// (linttest). Findings are suppressed one at a time with a justified
//
//	//helcfl:allow(rule) reason
//
// directive; an allow without a reason is itself a finding. The package
// policy (policy.go) records which packages are on the deterministic path,
// and every package in the module must be classified there explicitly.
//
// See docs/STATIC_ANALYSIS.md for the rule catalogue and a recipe for
// adding a new analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named rule: a function that inspects a type-checked
// package and reports diagnostics through its Pass.
type Analyzer struct {
	// Name identifies the rule; it is what an //helcfl:allow(name)
	// directive references.
	Name string
	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc string
	// Run inspects one package.
	Run func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	// Path is the package's import path (e.g. "helcfl/internal/fl").
	Path string
	// Fset resolves token positions for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed source files (tests excluded).
	Files []*ast.File
	// Info holds the type-checker's resolution results for Files.
	Info *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one raw analyzer finding, before directive processing.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is one fully resolved result: a diagnostic tagged with its rule
// and position, and — when an //helcfl:allow directive covers it — the
// justification that suppressed it.
type Finding struct {
	// Rule is the analyzer name ("nondeterminism", …) or one of the
	// framework rules: "allow" (malformed or unknown directive), "policy"
	// (unclassified package) and "stale" (an allow that suppresses
	// nothing).
	Rule string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation.
	Message string
	// Suppressed reports that a justified //helcfl:allow directive covers
	// this finding; Reason carries its justification.
	Suppressed bool
	Reason     string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (allowed: %s)", f.Reason)
	}
	return s
}
