package lint_test

import (
	"testing"

	"helcfl/internal/lint"
	"helcfl/internal/lint/linttest"
)

// Each analyzer is pinned by a GOPATH-style corpus under testdata/<rule>:
// the corpus packages mirror real module import paths, so they are
// classified by the same policy table as the live tree, and every expected
// diagnostic is a // want "regexp" comment on the offending line. The
// corpora also cover the negative space — approved idioms, out-of-scope
// packages, and justified //helcfl:allow suppressions must produce nothing.

func TestNondeterminismCorpus(t *testing.T) {
	linttest.Run(t, "testdata/nondeterminism", lint.Nondeterminism)
}

func TestMapOrderCorpus(t *testing.T) {
	linttest.Run(t, "testdata/maporder", lint.MapOrder)
}

func TestFloatCompareCorpus(t *testing.T) {
	linttest.Run(t, "testdata/floatcompare", lint.FloatCompare)
}

func TestDurabilityCorpus(t *testing.T) {
	linttest.Run(t, "testdata/durability", lint.Durability)
}

func TestCtxFlowCorpus(t *testing.T) {
	linttest.Run(t, "testdata/ctxflow", lint.CtxFlow)
}

func TestSpanEndCorpus(t *testing.T) {
	linttest.Run(t, "testdata/spanend", lint.SpanEnd)
}

func TestLockHeldCorpus(t *testing.T) {
	linttest.Run(t, "testdata/lockheld", lint.LockHeld)
}
