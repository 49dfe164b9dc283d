package helcfl

import (
	"testing"

	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/obs"
)

// benchEngineEnv builds a short shared campaign environment for the sink
// and tracer overhead gates (here and in spans_test.go).
func benchEngineEnv(tb testing.TB) *experiments.Env {
	tb.Helper()
	p := TinyPreset()
	p.MaxRounds = 3
	env, err := BuildEnv(p, IID, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return env
}

func engineRun(tb testing.TB, env *experiments.Env, sink obs.EventSink) {
	tb.Helper()
	if _, _, err := experiments.RunSchemeWith(env, "HELCFL", func(c *fl.Config) { c.Sink = sink }); err != nil {
		tb.Fatal(err)
	}
}

// nopSink ignores every event.
type nopSink struct{}

func (nopSink) OnEvent(obs.Event) {}

// TestNilSinkIsCheaperThanNopSink pins the engine's design guarantee that a
// nil Config.Sink adds zero allocations to the round hot path: every
// event-related allocation (span buffers, event structs, detail slices) is
// guarded by the sink check, so attaching even a no-op sink must cost
// strictly more. If this fails, an event allocation escaped its guard.
func TestNilSinkIsCheaperThanNopSink(t *testing.T) {
	env := benchEngineEnv(t)
	nilAllocs := testing.AllocsPerRun(2, func() { engineRun(t, env, nil) })
	nopAllocs := testing.AllocsPerRun(2, func() { engineRun(t, env, nopSink{}) })
	if nilAllocs >= nopAllocs {
		t.Fatalf("nil sink allocates %.0f/run, no-op sink %.0f/run: the nil fast path is gone", nilAllocs, nopAllocs)
	}
}
