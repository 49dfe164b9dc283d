package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRealModuleClean runs the driver the way `make lint` does — over the
// real repository, with the stale-suppression audit on — and requires a
// clean exit: zero unsuppressed findings and zero stale allow directives
// across every package in the module.
func TestRealModuleClean(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-stale", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("helcfl-lint -stale ./... over the real module exited %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "helcfl-lint: ok") {
		t.Errorf("missing ok summary in stderr: %q", stderr.String())
	}
}

// TestSeededViolationFails pins the acceptance check from the issue: a
// module whose internal/fl contains a deliberate time.Now() must fail the
// lint with a nondeterminism finding.
func TestSeededViolationFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-C", "testdata/badmodule", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d over testdata/badmodule, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "nondeterminism: time.Now reads the wall clock in deterministic package helcfl/internal/fl") {
		t.Errorf("missing nondeterminism finding in stdout: %q", stdout.String())
	}
}

// TestStaleDirective pins the stale-suppression audit: a module whose only
// allow directive suppresses nothing passes a plain run but fails -stale
// with a rule "stale" finding.
func TestStaleDirective(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", "testdata/stalemodule", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("plain run over testdata/stalemodule exited %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	code := run([]string{"-C", "testdata/stalemodule", "-stale", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("-stale run over testdata/stalemodule exited %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), `stale: allow directive for "nondeterminism" suppresses nothing`) {
		t.Errorf("missing stale finding in stdout: %q", stdout.String())
	}
}

// TestJSONOutput pins the machine-readable mode: over the bad module the
// driver still exits 1 but stdout is one JSON document carrying the finding.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-C", "testdata/badmodule", "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("-json run over testdata/badmodule exited %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout.String())
	}
	if !rep.Failed {
		t.Errorf("jsonReport.Failed = false, want true")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Rule == "nondeterminism" && strings.Contains(f.Message, "time.Now") && f.Line > 0 && f.File != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no nondeterminism finding in JSON output:\n%s", stdout.String())
	}
}

// TestJSONClean verifies a clean -json run reports failed=false and exits 0.
func TestJSONClean(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", "testdata/stalemodule", "-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-json clean run exited %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout.String())
	}
	if rep.Failed || rep.Packages == 0 {
		t.Errorf("jsonReport = %+v, want failed=false with packages > 0", rep)
	}
}

// TestListAnalyzers and TestBadPattern cover the driver's small CLI surface.
func TestListAnalyzers(t *testing.T) {
	want := []string{"nondeterminism", "maporder", "floatcompare", "durability", "ctxflow", "spanend", "lockheld"}
	if listed := listAnalyzers(t); !slices.Equal(listed, want) {
		t.Errorf("-list names %v, want %v", listed, want)
	}
}

// TestRulesTableMatchesAnalyzers keeps docs/STATIC_ANALYSIS.md from
// drifting off the analyzer set: its rules table holds exactly one row per
// analyzer, in -list order.
func TestRulesTableMatchesAnalyzers(t *testing.T) {
	doc, err := os.ReadFile("../../docs/STATIC_ANALYSIS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rules, ok := strings.Cut(string(doc), "\n## The rules\n")
	if !ok {
		t.Fatal("docs/STATIC_ANALYSIS.md has no \"## The rules\" section")
	}
	rules, _, _ = strings.Cut(rules, "\n## ")
	row := regexp.MustCompile("^\\| `([a-z]+)` \\|")
	var rows []string
	for _, line := range strings.Split(rules, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			rows = append(rows, m[1])
		}
	}
	if listed := listAnalyzers(t); !slices.Equal(rows, listed) {
		t.Errorf("docs/STATIC_ANALYSIS.md rules table rows %v, want -list order %v", rows, listed)
	}
}

// listAnalyzers runs -list and returns the analyzer names it prints.
func listAnalyzers(t *testing.T) []string {
	t.Helper()
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	return names
}

func TestBadPattern(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"helcfl/internal/fl"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unsupported pattern exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unsupported pattern") {
		t.Errorf("missing diagnostic in stderr: %q", stderr.String())
	}
}
