package helcfl

import (
	"testing"

	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/obs/span"
)

// engineRunTraced is engineRun with a span recorder attached instead of an
// event sink; rec may be nil to exercise the disabled-tracer fast path.
func engineRunTraced(tb testing.TB, rec *span.Recorder) {
	tb.Helper()
	env := benchEngineEnv(tb)
	if _, _, err := experiments.RunSchemeWith(env, "HELCFL", func(c *fl.Config) { c.Trace = rec }); err != nil {
		tb.Fatal(err)
	}
}

// TestNilTraceIsCheaperThanRecorder pins the tracer's zero-overhead
// contract at engine scope, mirroring TestNilSinkIsCheaperThanNopSink: a
// nil Config.Trace must add nothing to the training hot loop (every span
// start, attribute, and ring write is guarded by the nil-recorder check),
// so an attached recorder must cost strictly more.
func TestNilTraceIsCheaperThanRecorder(t *testing.T) {
	nilAllocs := testing.AllocsPerRun(2, func() { engineRunTraced(t, nil) })
	recAllocs := testing.AllocsPerRun(2, func() {
		engineRunTraced(t, span.NewRecorder(1, span.Options{}))
	})
	if nilAllocs >= recAllocs {
		t.Fatalf("nil trace allocates %.0f/run, recorder %.0f/run: the nil fast path is gone", nilAllocs, recAllocs)
	}
}

// TestSpanStructureIsDeterministic pins the tracer's replayability story:
// two engine runs from the same seed produce identical span streams —
// same count, order, IDs, parentage, names, and attributes — with only
// the clock readings free to vary. This is what lets the lint policy keep
// internal/obs/span on the deterministic path.
func TestSpanStructureIsDeterministic(t *testing.T) {
	runOnce := func() []span.Rec {
		col := &span.Collector{}
		engineRunTraced(t, span.NewRecorder(42, span.Options{Exporter: col}))
		return col.Snapshot()
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("no spans recorded")
	}
	for i := range a {
		x, y := a[i], b[i]
		// Durations are wall clock and may differ; everything else is
		// structure and must not.
		x.StartNs, x.DurNs, y.StartNs, y.DurNs = 0, 0, 0, 0
		if x.Trace != y.Trace || x.Span != y.Span || x.Parent != y.Parent || x.Name != y.Name {
			t.Fatalf("span %d structure differs: %+v vs %+v", i, x, y)
		}
		if len(x.Attrs) != len(y.Attrs) {
			t.Fatalf("span %d attr counts differ: %+v vs %+v", i, x, y)
		}
		for j := range x.Attrs {
			if x.Attrs[j] != y.Attrs[j] {
				t.Fatalf("span %d attr %d differs: %+v vs %+v", i, j, x.Attrs[j], y.Attrs[j])
			}
		}
	}
}
