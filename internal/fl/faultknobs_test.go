package fl

import (
	"strings"
	"testing"
)

// Satellite: table-driven property tests for the Config fault knobs —
// DropoutProb boundaries, BatteryCapacityJ interplay with partial rounds,
// and the invariant that dead or dropped users never contribute to the
// FedAvg aggregation.

func TestValidateFaultKnobBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; "" means valid
	}{
		{"dropout zero", func(c *Config) { c.DropoutProb = 0 }, ""},
		{"dropout half", func(c *Config) { c.DropoutProb = 0.5 }, ""},
		{"dropout near one", func(c *Config) { c.DropoutProb = 0.999 }, ""},
		{"dropout negative", func(c *Config) { c.DropoutProb = -0.1 }, "dropout"},
		{"dropout exactly one", func(c *Config) { c.DropoutProb = 1.0 }, "dropout"},
		{"dropout above one", func(c *Config) { c.DropoutProb = 1.5 }, "dropout"},
		{"battery disabled", func(c *Config) { c.BatteryCapacityJ = 0 }, ""},
		{"battery tiny", func(c *Config) { c.BatteryCapacityJ = 1e-9 }, ""},
		{"both faults", func(c *Config) { c.DropoutProb = 0.999; c.BatteryCapacityJ = 1 }, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, 50, 4)
			cfg := baseConfig(env, allUsersPlanner(env.devs))
			tc.mutate(&cfg)
			err := cfg.validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("validate() = %v, want nil", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("validate() = nil, want error")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("validate() = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestDroppedUsersExcludedFromAggregation pins the dropout invariant through
// the event stream: every round's aggregate covers exactly the selected
// users minus the dropouts, every dropout names a selected user, and the
// total dropout-event count equals the summed Failed counters.
func TestDroppedUsersExcludedFromAggregation(t *testing.T) {
	env := newTestEnv(t, 51, 6)
	sink := &recordingSink{}
	cfg := baseConfig(env, allUsersPlanner(env.devs))
	cfg.MaxRounds = 30
	cfg.DropoutProb = 0.4
	cfg.Sink = sink
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	selByRound := map[int]map[int]bool{}
	for _, ev := range sink.selections {
		set := map[int]bool{}
		for _, q := range ev.Selected {
			set[q] = true
		}
		selByRound[ev.Round] = set
	}
	dropsByRound := map[int]int{}
	for _, ev := range sink.dropouts {
		if !selByRound[ev.Round][ev.User] {
			t.Fatalf("dropout for unselected user %d in round %d", ev.User, ev.Round)
		}
		dropsByRound[ev.Round]++
	}
	aggByRound := sink.aggregatesByRound()
	totalFailed := 0
	for _, rec := range res.Records {
		totalFailed += rec.Failed
		selCount := len(rec.Selected)
		if agg, ok := aggByRound[rec.Round]; ok {
			if agg.uploads+agg.failed != selCount {
				t.Fatalf("round %d: uploads %d + failed %d != selected %d",
					rec.Round, agg.uploads, agg.failed, selCount)
			}
			if agg.failed != dropsByRound[rec.Round] {
				t.Fatalf("round %d: aggregate failed %d != dropout events %d",
					rec.Round, agg.failed, dropsByRound[rec.Round])
			}
		} else if rec.Failed != selCount {
			t.Fatalf("round %d: no aggregate but only %d/%d failed", rec.Round, rec.Failed, selCount)
		}
	}
	if len(sink.dropouts) != totalFailed {
		t.Fatalf("dropout events %d != summed Failed %d", len(sink.dropouts), totalFailed)
	}
	if totalFailed == 0 {
		t.Fatal("p=0.4 over 30 rounds produced no dropouts")
	}
}

type obsAggregate struct{ uploads, failed int }

// aggregatesByRound pairs each aggregation's upload count with its round's
// failure count from RoundEndEvent. Rounds where every upload is lost emit
// no aggregate at all and have no entry.
func (r *recordingSink) aggregatesByRound() map[int]obsAggregate {
	failed := map[int]int{}
	for _, ev := range r.roundEnds {
		failed[ev.Round] = ev.Failed
	}
	out := map[int]obsAggregate{}
	for _, ev := range r.aggregates {
		out[ev.Round] = obsAggregate{uploads: ev.Uploads, failed: failed[ev.Round]}
	}
	return out
}

// TestDropoutNearOneStillRuns: p=0.999 is the legal extreme — most rounds
// lose every upload and skip aggregation entirely, but the run completes
// with the invariants intact.
func TestDropoutNearOneStillRuns(t *testing.T) {
	env := newTestEnv(t, 52, 5)
	sink := &recordingSink{}
	cfg := baseConfig(env, allUsersPlanner(env.devs))
	cfg.MaxRounds = 15
	cfg.DropoutProb = 0.999
	cfg.Sink = sink
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 15 {
		t.Fatalf("ran %d rounds, want 15", len(res.Records))
	}
	for _, rec := range res.Records {
		if rec.Failed < 0 || rec.Failed > len(rec.Selected) {
			t.Fatalf("round %d: failed %d outside [0,%d]", rec.Round, rec.Failed, len(rec.Selected))
		}
	}
	// 15 rounds × 5 users at p=0.999: all-but-certainly ≥1 loss.
	if len(sink.dropouts) == 0 {
		t.Fatal("p=0.999 produced no dropouts")
	}
}

// TestBatteryDeadUsersNeverReselected pins the battery invariant through the
// event stream: once a BatteryEvent reports user q shut down, q never appears in
// a later round's (post-filter) selection — and therefore never in the
// aggregation weights — and partial cohorts still aggregate consistently.
func TestBatteryDeadUsersNeverReselected(t *testing.T) {
	// Probe one round to size a battery lasting ~2.5 rounds.
	env := newTestEnv(t, 53, 6)
	probe := baseConfig(env, allUsersPlanner(env.devs))
	probe.MaxRounds = 1
	one, err := Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	perUser := one.Records[0].Energy / float64(len(env.devs))

	env2 := newTestEnv(t, 53, 6)
	sink := &recordingSink{}
	cfg := baseConfig(env2, allUsersPlanner(env2.devs))
	cfg.MaxRounds = 40
	cfg.BatteryCapacityJ = 2.5 * perUser
	cfg.Sink = sink
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HaltedByDeadFleet {
		t.Fatal("full-participation fleet with ~2.5-round batteries must die")
	}
	if len(sink.batteries) == 0 {
		t.Fatal("no battery shutdown events")
	}

	deadSince := map[int]int{} // user → round its battery event fired
	for _, ev := range sink.batteries {
		if ev.SpentJ < cfg.BatteryCapacityJ {
			t.Fatalf("battery event below capacity: %+v", ev)
		}
		if _, dup := deadSince[ev.User]; dup {
			t.Fatalf("user %d shut down twice", ev.User)
		}
		deadSince[ev.User] = ev.Round
	}
	for _, ev := range sink.selections {
		for _, q := range ev.Selected {
			if died, ok := deadSince[q]; ok && ev.Round > died {
				t.Fatalf("dead user %d (died round %d) selected in round %d", q, died, ev.Round)
			}
		}
	}
	// Partial cohorts still satisfy the aggregation balance.
	aggByRound := sink.aggregatesByRound()
	for _, rec := range res.Records {
		if agg, ok := aggByRound[rec.Round]; ok {
			if agg.uploads+agg.failed != len(rec.Selected) {
				t.Fatalf("round %d: uploads %d + failed %d != selected %d",
					rec.Round, agg.uploads, agg.failed, len(rec.Selected))
			}
		}
	}
}

// TestBatteryAndDropoutCompose: both fault knobs at once keep every
// invariant — dead users stay out of cohorts, dropped users stay out of
// aggregates, and the run ends in one of the documented exits.
func TestBatteryAndDropoutCompose(t *testing.T) {
	env := newTestEnv(t, 54, 6)
	probe := baseConfig(env, allUsersPlanner(env.devs))
	probe.MaxRounds = 1
	one, err := Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	perUser := one.Records[0].Energy / float64(len(env.devs))

	env2 := newTestEnv(t, 54, 6)
	sink := &recordingSink{}
	cfg := baseConfig(env2, allUsersPlanner(env2.devs))
	cfg.MaxRounds = 40
	cfg.DropoutProb = 0.3
	cfg.BatteryCapacityJ = 3 * perUser
	cfg.Sink = sink
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadSince := map[int]int{}
	for _, ev := range sink.batteries {
		deadSince[ev.User] = ev.Round
	}
	for _, ev := range sink.selections {
		for _, q := range ev.Selected {
			if died, ok := deadSince[q]; ok && ev.Round > died {
				t.Fatalf("dead user %d selected in round %d", q, ev.Round)
			}
		}
	}
	for _, ev := range sink.dropouts {
		if died, ok := deadSince[ev.User]; ok && ev.Round > died {
			t.Fatalf("dead user %d reported as dropout in round %d", ev.User, ev.Round)
		}
	}
	if !res.HaltedByDeadFleet && len(res.Records) != cfg.MaxRounds {
		t.Fatalf("run ended after %d rounds without a dead fleet", len(res.Records))
	}
}
