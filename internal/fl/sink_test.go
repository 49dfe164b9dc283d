package fl

import (
	"math"
	"testing"

	"helcfl/internal/obs"
)

// recordingSink captures the full event stream for assertions.
type recordingSink struct {
	runStarts  []obs.RunStartEvent
	roundStart int
	selections []obs.SelectionEvent
	locals     []obs.LocalUpdateEvent
	uploads    []obs.UploadEvent
	dropouts   []obs.DropoutEvent
	batteries  []obs.BatteryEvent
	aggregates []obs.AggregateEvent
	roundEnds  []obs.RoundEndEvent
	runEnds    []obs.RunEndEvent
}

func (r *recordingSink) OnEvent(e obs.Event) {
	switch ev := e.(type) {
	case obs.RunStartEvent:
		r.runStarts = append(r.runStarts, ev)
	case obs.RoundStartEvent:
		r.roundStart++
	case obs.SelectionEvent:
		r.selections = append(r.selections, ev)
	case obs.LocalUpdateEvent:
		r.locals = append(r.locals, ev)
	case obs.UploadEvent:
		r.uploads = append(r.uploads, ev)
	case obs.DropoutEvent:
		r.dropouts = append(r.dropouts, ev)
	case obs.BatteryEvent:
		r.batteries = append(r.batteries, ev)
	case obs.AggregateEvent:
		r.aggregates = append(r.aggregates, ev)
	case obs.RoundEndEvent:
		r.roundEnds = append(r.roundEnds, ev)
	case obs.RunEndEvent:
		r.runEnds = append(r.runEnds, ev)
	}
}

func TestSinkReceivesConsistentEventStream(t *testing.T) {
	env := newTestEnv(t, 21, 6)
	sink := &recordingSink{}
	cfg := baseConfig(env, allUsersPlanner(env.devs))
	cfg.MaxRounds = 4
	cfg.Sink = sink
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(sink.runStarts) != 1 || len(sink.runEnds) != 1 {
		t.Fatalf("run events = %d/%d", len(sink.runStarts), len(sink.runEnds))
	}
	rs := sink.runStarts[0]
	if rs.Scheme != "all" || rs.Users != 6 || rs.MaxRounds != 4 || rs.ModelBits != res.ModelBits {
		t.Fatalf("run start = %+v", rs)
	}
	re := sink.runEnds[0]
	if re.Rounds != len(res.Records) || re.TotalTimeSec != res.TotalTime || re.BestAccuracy != res.BestAccuracy {
		t.Fatalf("run end = %+v", re)
	}

	rounds := len(res.Records)
	if sink.roundStart != rounds || len(sink.selections) != rounds ||
		len(sink.roundEnds) != rounds || len(sink.aggregates) != rounds {
		t.Fatalf("per-round event counts: starts=%d sel=%d ends=%d agg=%d, want %d each",
			sink.roundStart, len(sink.selections), len(sink.roundEnds), len(sink.aggregates), rounds)
	}
	// Every selected user produced one local-update and one upload span.
	if len(sink.locals) != rounds*6 || len(sink.uploads) != rounds*6 {
		t.Fatalf("span counts: locals=%d uploads=%d, want %d", len(sink.locals), len(sink.uploads), rounds*6)
	}
	for _, ev := range sink.locals {
		if ev.SimSec <= 0 || ev.EnergyJ <= 0 || ev.WallSec <= 0 || ev.FreqHz <= 0 {
			t.Fatalf("degenerate local update event %+v", ev)
		}
		if math.IsNaN(ev.Loss) {
			t.Fatalf("NaN loss in %+v", ev)
		}
	}
	for _, ev := range sink.uploads {
		if ev.SimSec <= 0 || ev.EndSec < ev.StartSec || ev.WaitSec < 0 {
			t.Fatalf("degenerate upload event %+v", ev)
		}
	}
	// Round-end events mirror the result records exactly.
	for i, rec := range res.Records {
		ev := sink.roundEnds[i]
		if ev.Round != rec.Round || ev.DelaySec != rec.Delay || ev.EnergyJ != rec.Energy ||
			ev.SlackSec != rec.Slack || ev.CumTimeSec != rec.CumTime ||
			ev.TrainLoss != rec.TrainLoss || ev.Evaluated != rec.Evaluated ||
			ev.TestAccuracy != rec.TestAccuracy {
			t.Fatalf("round %d: event %+v != record %+v", i, ev, rec)
		}
	}
	if len(sink.dropouts) != 0 || len(sink.batteries) != 0 {
		t.Fatalf("unexpected fault events: %d dropouts, %d batteries", len(sink.dropouts), len(sink.batteries))
	}
}

func TestSinkReportsDropoutsAndBatteries(t *testing.T) {
	// Probe one round's per-user energy, then grant ~3 rounds of battery so
	// shutdowns are guaranteed within the budget.
	probeEnv := newTestEnv(t, 22, 6)
	probe := baseConfig(probeEnv, allUsersPlanner(probeEnv.devs))
	probe.MaxRounds = 1
	one, err := Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	perUser := one.Records[0].Energy / 6

	env := newTestEnv(t, 22, 6)
	sink := &recordingSink{}
	cfg := baseConfig(env, allUsersPlanner(env.devs))
	cfg.MaxRounds = 12
	cfg.DropoutProb = 0.5
	cfg.BatteryCapacityJ = 3 * perUser
	cfg.Sink = sink
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalFailed := 0
	for _, rec := range res.Records {
		totalFailed += rec.Failed
	}
	if len(sink.dropouts) != totalFailed {
		t.Fatalf("dropout events = %d, records say %d", len(sink.dropouts), totalFailed)
	}
	if totalFailed == 0 {
		t.Fatal("fault injection produced no dropouts; tighten the test setup")
	}
	last := res.Records[len(res.Records)-1]
	dead := 6 - last.AliveDevices
	if len(sink.batteries) != dead {
		t.Fatalf("battery events = %d, final alive count implies %d", len(sink.batteries), dead)
	}
	if dead == 0 {
		t.Fatal("battery cap produced no shutdowns; tighten the test setup")
	}
	for _, ev := range sink.batteries {
		if ev.SpentJ < cfg.BatteryCapacityJ {
			t.Fatalf("battery event below capacity: %+v", ev)
		}
	}
}

// TestSinkRunMatchesNilSinkRun verifies observability is pure measurement:
// wiring a sink must not change a single training outcome.
func TestSinkRunMatchesNilSinkRun(t *testing.T) {
	run := func(sink obs.EventSink) *Result {
		env := newTestEnv(t, 23, 6)
		cfg := baseConfig(env, allUsersPlanner(env.devs))
		cfg.MaxRounds = 5
		cfg.DropoutProb = 0.3
		cfg.Sink = sink
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(&recordingSink{})
	if len(plain.Records) != len(observed.Records) {
		t.Fatalf("round counts differ: %d vs %d", len(plain.Records), len(observed.Records))
	}
	for i := range plain.Records {
		a, b := plain.Records[i], observed.Records[i]
		if a.Delay != b.Delay || a.Energy != b.Energy || a.TrainLoss != b.TrainLoss ||
			a.Failed != b.Failed || a.TestAccuracy != b.TestAccuracy {
			t.Fatalf("round %d diverged with sink attached: %+v vs %+v", i, a, b)
		}
	}
	if plain.FinalAccuracy != observed.FinalAccuracy {
		t.Fatalf("final accuracy diverged: %g vs %g", plain.FinalAccuracy, observed.FinalAccuracy)
	}
}

func TestMetricsSinkEndToEnd(t *testing.T) {
	env := newTestEnv(t, 24, 6)
	reg := obs.NewRegistry()
	cfg := baseConfig(env, allUsersPlanner(env.devs))
	cfg.MaxRounds = 3
	cfg.Sink = obs.NewMetricsSink(reg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("helcfl_rounds_total", "").Value(); got != float64(len(res.Records)) {
		t.Fatalf("rounds_total = %g, want %d", got, len(res.Records))
	}
	var cum float64
	for _, rec := range res.Records {
		cum += rec.ComputeEnergy
	}
	vec := reg.CounterVec("helcfl_energy_joules_total", "", "kind")
	if got := vec.With("compute").Value(); math.Abs(got-cum) > 1e-9 {
		t.Fatalf("compute energy = %g, want %g", got, cum)
	}
	// Every user was selected every round.
	sel := reg.CounterVec("helcfl_selection_count", "", "user")
	if got := sel.With("0").Value(); got != float64(len(res.Records)) {
		t.Fatalf("selection count = %g", got)
	}
}
