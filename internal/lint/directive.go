package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// The one escape hatch every analyzer honors, and the only //helcfl:
// directive there is:
//
//	//helcfl:allow(rule) reason
//
// placed either at the end of the offending line or on its own line
// directly above it. The rule must name an analyzer and the reason must be
// non-empty — an allow that names no rule, an unknown rule, or carries no
// justification is itself a finding (rule "allow"), so suppressions stay
// auditable. Any other //helcfl: comment — a misspelt directive, or the
// marker of an analyzer that no longer exists — would silently check
// nothing, so it is a finding of rule "allow" too.

// directive is one parsed //helcfl:allow comment.
type directive struct {
	rule   string
	reason string
	pos    token.Pos
	line   int
}

var allowRE = regexp.MustCompile(`^helcfl:allow\(([^)\s]*)\)\s*(.*)$`)

// collectDirectives parses every //helcfl: comment in the pass's files. It
// returns the well-formed allow directives keyed by filename and line, and
// a finding for each malformed or unknown one.
func collectDirectives(fset *token.FileSet, files []*ast.File, rules map[string]bool) (map[string]map[int]directive, []Finding) {
	byFile := map[string]map[int]directive{}
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "helcfl:") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := allowRE.FindStringSubmatch(text)
				switch {
				case !strings.HasPrefix(text, "helcfl:allow"):
					bad = append(bad, Finding{
						Rule: "allow", Pos: pos,
						Message: "unknown directive //" + strings.Fields(text)[0] + ": the only one is //helcfl:allow(rule) reason",
					})
					continue
				case m == nil:
					bad = append(bad, Finding{
						Rule: "allow", Pos: pos,
						Message: "malformed allow directive: want //helcfl:allow(rule) reason",
					})
					continue
				case !rules[m[1]]:
					bad = append(bad, Finding{
						Rule: "allow", Pos: pos,
						Message: "allow directive names unknown rule " + quote(m[1]),
					})
					continue
				case strings.TrimSpace(m[2]) == "":
					bad = append(bad, Finding{
						Rule: "allow", Pos: pos,
						Message: "allow directive for " + quote(m[1]) + " is missing a reason",
					})
					continue
				}
				lines := byFile[pos.Filename]
				if lines == nil {
					lines = map[int]directive{}
					byFile[pos.Filename] = lines
				}
				lines[pos.Line] = directive{rule: m[1], reason: strings.TrimSpace(m[2]), pos: c.Pos(), line: pos.Line}
			}
		}
	}
	return byFile, bad
}

// suppression looks up a directive covering a finding of rule at pos: a
// directive on the same line (trailing comment) or on the line directly
// above (its own comment line).
func suppression(dirs map[string]map[int]directive, rule string, pos token.Position) (directive, bool) {
	lines := dirs[pos.Filename]
	if lines == nil {
		return directive{}, false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if d, ok := lines[line]; ok && d.rule == rule {
			return d, true
		}
	}
	return directive{}, false
}

// quote wraps a name in double quotes for a message.
func quote(s string) string { return `"` + s + `"` }
