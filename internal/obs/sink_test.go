package obs

import (
	"strings"
	"testing"
)

func playRound(s EventSink) {
	s.OnEvent(RunStartEvent{Scheme: "HELCFL", Users: 4, MaxRounds: 2, ModelBits: 1e5})
	s.OnEvent(RoundStartEvent{Round: 0})
	s.OnEvent(SelectionEvent{Round: 0, Selected: []int{1, 3}, Freqs: []float64{1e9, 2e9}})
	s.OnEvent(LocalUpdateEvent{Round: 0, User: 1, FreqHz: 1e9, SimSec: 2, EnergyJ: 5, WallSec: 0.01, Loss: 1.2})
	s.OnEvent(LocalUpdateEvent{Round: 0, User: 3, FreqHz: 2e9, SimSec: 1, EnergyJ: 7, WallSec: 0.02, Loss: 0.8})
	s.OnEvent(UploadEvent{Round: 0, User: 1, SimSec: 0.5, EnergyJ: 0.1, StartSec: 2, EndSec: 2.5})
	s.OnEvent(UploadEvent{Round: 0, User: 3, SimSec: 0.5, EnergyJ: 0.1, StartSec: 2.5, EndSec: 3, WaitSec: 1.5})
	s.OnEvent(DropoutEvent{Round: 0, User: 3})
	s.OnEvent(AggregateEvent{Round: 0, Uploads: 1})
	s.OnEvent(RoundEndEvent{
		Round: 0, Selected: []int{1, 3}, Failed: 1, Alive: 4,
		DelaySec: 3, EnergyJ: 12.2, ComputeJ: 12, UploadJ: 0.2, SlackSec: 1.5,
		CumTimeSec: 3, CumEnergyJ: 12.2, TrainLoss: 1.0,
		Evaluated: true, TestLoss: 0.9, TestAccuracy: 0.4,
	})
	s.OnEvent(BatteryEvent{Round: 0, User: 1, SpentJ: 50})
	s.OnEvent(RunEndEvent{Scheme: "HELCFL", Rounds: 1, TotalTimeSec: 3, TotalEnergyJ: 12.2})
}

func TestMetricsSinkRecordsEngineEvents(t *testing.T) {
	r := NewRegistry()
	m := NewMetricsSink(r)
	playRound(m)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"helcfl_runs_total 1",
		"helcfl_rounds_total 1",
		`helcfl_energy_joules_total{kind="compute"} 12`,
		`helcfl_energy_joules_total{kind="upload"} 0.2`,
		`helcfl_selection_count{user="1"} 1`,
		`helcfl_selection_count{user="3"} 1`,
		"helcfl_slack_reclaimed_seconds_total 1.5",
		"helcfl_dropouts_total 1",
		"helcfl_battery_depleted_total 1",
		"helcfl_aggregations_total 1",
		"helcfl_uploads_aggregated_total 1",
		"helcfl_selected_users 2",
		"helcfl_alive_devices 4",
		"helcfl_train_loss 1",
		"helcfl_test_accuracy 0.4",
		"helcfl_round_delay_seconds_count 1",
		"helcfl_local_update_seconds_count 2",
		"helcfl_local_update_wall_seconds_count 2",
		"helcfl_upload_seconds_count 2",
		"helcfl_cum_time_seconds 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if m.roundDelay.Count() != 1 {
		t.Fatalf("round delay observations = %d", m.roundDelay.Count())
	}
}

func TestMetricsSinkSharedRegistryAccumulates(t *testing.T) {
	r := NewRegistry()
	playRound(NewMetricsSink(r))
	playRound(NewMetricsSink(r)) // a second run binds to the same families
	if got := r.Counter("helcfl_rounds_total", "").Value(); got != 2 {
		t.Fatalf("rounds after two runs = %g", got)
	}
	if got := r.Counter("helcfl_runs_total", "").Value(); got != 2 {
		t.Fatalf("runs = %g", got)
	}
}

func TestMultiSinkFansOutAndDropsNil(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	s := Multi(nil, NewMetricsSink(r1), nil, NewMetricsSink(r2))
	playRound(s)
	for _, r := range []*Registry{r1, r2} {
		if got := r.Counter("helcfl_rounds_total", "").Value(); got != 1 {
			t.Fatalf("fan-out rounds = %g", got)
		}
	}
	if Multi(nil, nil) != nil {
		t.Fatal("all-nil Multi must collapse to nil")
	}
	one := NewMetricsSink(r1)
	if Multi(one) != EventSink(one) {
		t.Fatal("single-sink Multi must return the sink itself")
	}
}
