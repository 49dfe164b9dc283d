package lint_test

import (
	"strings"
	"testing"

	"helcfl/internal/lint"
)

// TestAllowDirectiveAudit pins the escape hatch's own rules on the
// testdata/allow corpus: a directive missing its reason, naming an unknown
// rule, or failing to parse is itself a finding (rule "allow"), as is any
// other //helcfl: comment, and such a directive does NOT suppress the
// diagnostic it sits on. Only the well-formed directive in the corpus
// suppresses anything.
func TestAllowDirectiveAudit(t *testing.T) {
	pkgs, err := lint.NewLoader().LoadTree("testdata/allow/src")
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	findings := lint.Run(pkgs, lint.Analyzers())

	type expect struct {
		rule       string
		substr     string
		suppressed bool
	}
	expected := []expect{
		{"allow", `allow directive for "nondeterminism" is missing a reason`, false},
		{"allow", `allow directive names unknown rule "clockness"`, false},
		{"allow", "malformed allow directive", false},
		{"allow", "unknown directive //helcfl:noaloc", false},
		{"allow", "unknown directive //helcfl:noalloc", false},
		// The diagnostics under the broken directives stay live...
		{"nondeterminism", "time.Now reads the wall clock", false},
		{"nondeterminism", "time.Now reads the wall clock", false},
		// ...and only the justified directive suppresses its diagnostic.
		{"nondeterminism", "time.Now reads the wall clock", true},
	}

	if got, want := len(findings), len(expected); got != want {
		t.Fatalf("got %d findings, want %d:\n%s", got, want, sprint(findings))
	}
	for _, e := range expected {
		if !consume(findings, e.rule, e.substr, e.suppressed) {
			t.Errorf("no finding with rule=%s suppressed=%v matching %q:\n%s",
				e.rule, e.suppressed, e.substr, sprint(findings))
		}
		findings = remove(findings, e.rule, e.substr, e.suppressed)
	}

	suppressed := 0
	for _, f := range lint.Run(pkgs, lint.Analyzers()) {
		if f.Suppressed {
			suppressed++
			if want := "corpus fixture: justified suppression for contrast"; f.Reason != want {
				t.Errorf("suppressed finding carries reason %q, want %q", f.Reason, want)
			}
		}
	}
	if suppressed != 1 {
		t.Errorf("got %d suppressed findings, want exactly 1", suppressed)
	}
}

func consume(fs []lint.Finding, rule, substr string, suppressed bool) bool {
	for _, f := range fs {
		if f.Rule == rule && f.Suppressed == suppressed && strings.Contains(f.Message, substr) {
			return true
		}
	}
	return false
}

func remove(fs []lint.Finding, rule, substr string, suppressed bool) []lint.Finding {
	for i, f := range fs {
		if f.Rule == rule && f.Suppressed == suppressed && strings.Contains(f.Message, substr) {
			return append(append([]lint.Finding{}, fs[:i]...), fs[i+1:]...)
		}
	}
	return fs
}

func sprint(fs []lint.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}
