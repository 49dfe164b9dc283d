package lint

import "sort"

// Analyzers returns the full suite in its canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Nondeterminism, MapOrder, FloatCompare, Durability, CtxFlow,
		SpanEnd, LockHeld,
	}
}

// RuleNames returns the set of rule names an //helcfl:allow directive may
// reference.
func RuleNames(analyzers []*Analyzer) map[string]bool {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// Run applies the analyzers to every package and resolves //helcfl:allow
// directives, returning all findings (suppressed ones included, marked)
// sorted by position. Beyond the analyzers themselves it reports:
//
//   - rule "allow": a malformed directive — no parseable rule, an unknown
//     rule, or a missing reason — or any other //helcfl: comment;
//   - rule "policy": a module package absent from the policy table
//     (policy.go), so new packages must be classified explicitly.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return run(pkgs, analyzers, false)
}

// RunWithStale is Run plus the stale-suppression audit: every well-formed
// //helcfl:allow directive that suppressed no finding becomes a rule "stale"
// finding, so a suppression outliving the code it excused is removed rather
// than rotting into a blanket exemption. Stale findings cannot themselves be
// suppressed.
func RunWithStale(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return run(pkgs, analyzers, true)
}

func run(pkgs []*Package, analyzers []*Analyzer, stale bool) []Finding {
	rules := RuleNames(analyzers)
	var out []Finding
	for _, pkg := range pkgs {
		dirs, bad := collectDirectives(pkg.Fset, pkg.Files, rules)
		out = append(out, bad...)
		if !Classified(pkg.Path) {
			out = append(out, Finding{
				Rule:    "policy",
				Pos:     pkg.Fset.Position(pkg.Files[0].Package),
				Message: "package " + pkg.Path + " is not classified in internal/lint/policy.go; add it as deterministic or runtime",
			})
		}
		consumed := map[string]map[int]bool{}
		for _, a := range analyzers {
			pass := &Pass{Path: pkg.Path, Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info}
			a.Run(pass)
			for _, d := range pass.diags {
				f := Finding{Rule: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message}
				if dir, ok := suppression(dirs, a.Name, f.Pos); ok {
					f.Suppressed = true
					f.Reason = dir.reason
					if consumed[f.Pos.Filename] == nil {
						consumed[f.Pos.Filename] = map[int]bool{}
					}
					consumed[f.Pos.Filename][dir.line] = true
				}
				out = append(out, f)
			}
		}
		if stale {
			for file, lines := range dirs {
				for line, d := range lines {
					if consumed[file][line] {
						continue
					}
					out = append(out, Finding{
						Rule:    "stale",
						Pos:     pkg.Fset.Position(d.pos),
						Message: "allow directive for " + quote(d.rule) + " suppresses nothing; the rule no longer fires here — remove the directive",
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}
