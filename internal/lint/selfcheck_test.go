package lint_test

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"helcfl/internal/lint"
)

// loadModule loads the live module once for every test in this file.
var loadModule = sync.OnceValues(func() ([]*lint.Package, error) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return nil, fmt.Errorf("find module root: %w", err)
	}
	return lint.NewLoader().LoadModule(root)
})

// TestModuleLintsClean is the suite's own gate on the live tree: the whole
// module must produce zero unsuppressed findings, and every suppression
// must carry a reason. A regression anywhere in the repo — a stray
// time.Now() in the deterministic core, a missed fsync in checkpoint —
// fails this test, not just `make lint`.
func TestModuleLintsClean(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("module loaded zero packages")
	}
	findings := lint.Run(pkgs, lint.Analyzers())
	for _, f := range findings {
		if !f.Suppressed {
			t.Errorf("unsuppressed finding: %s", f)
		} else if f.Reason == "" {
			t.Errorf("suppressed finding without a reason: %s", f)
		}
	}
}

// maxAllowSites is the allow-list ratchet: the number of //helcfl:allow
// annotation sites the tree may carry. Lower it when a PR removes a site;
// raising it means taking on debt and needs the same review as the code.
const maxAllowSites = 15

// TestAllowSitesRatchet counts the //helcfl:allow annotation sites in the
// module's non-test sources outside the lint tooling itself and fails when
// the count exceeds maxAllowSites: the allow list is a debt meter that may
// only go down.
func TestAllowSitesRatchet(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	site := regexp.MustCompile(`^//helcfl:allow\(([^)]*)\)`)
	perRule := map[string]int{}
	total := 0
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path+"/", "/internal/lint/") || strings.HasSuffix(pkg.Path, "/cmd/helcfl-lint") {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if m := site.FindStringSubmatch(c.Text); m != nil {
						perRule[m[1]]++
						total++
					}
				}
			}
		}
	}
	if total > maxAllowSites {
		rules := make([]string, 0, len(perRule))
		for rule, n := range perRule {
			rules = append(rules, fmt.Sprintf("%s %d", rule, n))
		}
		sort.Strings(rules)
		t.Errorf("%d //helcfl:allow sites, ratchet is %d (%s): remove an annotation rather than add one", total, maxAllowSites, strings.Join(rules, ", "))
	}
}

// TestPolicyTablesNameLoadedPackages fails on a policy entry for a package
// the module no longer has. A stale key classifies nothing and scopes no
// analyzer, so without this check it would outlive its package unnoticed,
// the same way TestReachability rejects a stale keep entry.
func TestPolicyTablesNameLoadedPackages(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	tables := map[string][]string{
		"Packages":           keys(lint.Packages),
		"DurabilityPackages": keys(lint.DurabilityPackages),
		"ContextPackages":    keys(lint.ContextPackages),
		"MapOrderExtra":      keys(lint.MapOrderExtra),
	}
	for table, paths := range tables {
		for _, path := range paths {
			if !loaded[path] {
				t.Errorf("stale %s entry %s: the module has no such package", table, path)
			}
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
