// Corpus for the //helcfl:allow escape hatch itself: a directive with no
// reason, an unknown rule, or unparseable syntax is a finding of rule
// "allow", and a malformed directive does NOT suppress the underlying
// diagnostic. So is any other //helcfl: comment. directive_test.go asserts on this file directly rather than
// through want comments, because a directive line cannot also carry a want.
package fl

import "time"

// Missing reason: the directive is reported and the time.Now finding below
// it stays unsuppressed.
//
//helcfl:allow(nondeterminism)
func noReason() time.Time { return time.Now() }

// Unknown rule: reported, and the finding stays unsuppressed.
//
//helcfl:allow(clockness) clocks are fine here
func unknownRule() time.Time { return time.Now() }

// Unparseable: no (rule) at all.
//
//helcfl:allow please
func malformed() int { return 0 }

// Well-formed: rule and reason present, so the finding below is suppressed.
//
//helcfl:allow(nondeterminism) corpus fixture: justified suppression for contrast
func justified() time.Time { return time.Now() }

// A misspelt directive checks nothing, so it is reported.
//
//helcfl:noaloc
func typo() int { return 0 }

// So is the marker of an analyzer that no longer exists.
//
//helcfl:noalloc
func retired() int { return 0 }
