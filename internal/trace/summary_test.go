package trace

import (
	"strings"
	"testing"
)

func summaryRecords() []Record {
	return []Record{
		{Scheme: "HELCFL", Round: 0, DelaySec: 2, EnergyJ: 10, ComputeJ: 8, SlackSec: 1,
			CumTimeSec: 2, CumEnergyJ: 10, TrainLoss: 2.0, Evaluated: true, TestAccuracy: 0.4, SchemaVersion: 1},
		{Scheme: "HELCFL", Round: 1, DelaySec: 4, EnergyJ: 12, ComputeJ: 9, SlackSec: 3,
			CumTimeSec: 6, CumEnergyJ: 22, TrainLoss: 1.5, Evaluated: true, TestAccuracy: 0.6, SchemaVersion: 1},
		{Scheme: "ClassicFL", Round: 0, DelaySec: 5, EnergyJ: 20, ComputeJ: 15, SlackSec: 2,
			CumTimeSec: 5, CumEnergyJ: 20, TrainLoss: 2.1, Evaluated: true, TestAccuracy: 0.35, SchemaVersion: 1},
	}
}

func TestSummarizeGroupsByScheme(t *testing.T) {
	sums := Summarize(summaryRecords())
	if len(sums) != 2 {
		t.Fatalf("schemes = %d", len(sums))
	}
	h := sums[0]
	if h.Scheme != "HELCFL" || h.Rounds != 2 {
		t.Fatalf("first summary = %+v", h)
	}
	if h.TotalTime != 6 || h.TotalEnergy != 22 {
		t.Fatalf("totals = %g/%g", h.TotalTime, h.TotalEnergy)
	}
	if h.BestAccuracy != 0.6 {
		t.Fatalf("best accuracy = %g", h.BestAccuracy)
	}
	wantShare := 17.0 / 22.0
	if diff := h.ComputeShare - wantShare; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("compute share = %g, want %g", h.ComputeShare, wantShare)
	}
	if h.Delay.Mean != 3 {
		t.Fatalf("delay mean = %g", h.Delay.Mean)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := Summarize(nil); len(got) != 0 {
		t.Fatalf("empty summarize = %v", got)
	}
}

func TestRenderSummaries(t *testing.T) {
	out := RenderSummaries(Summarize(summaryRecords())).String()
	if !strings.Contains(out, "HELCFL") || !strings.Contains(out, "ClassicFL") {
		t.Fatalf("render missing schemes:\n%s", out)
	}
	if !strings.Contains(out, "compute share") {
		t.Fatalf("render missing column:\n%s", out)
	}
}

func TestAccuracyChart(t *testing.T) {
	chart := AccuracyChart(summaryRecords())
	out := chart.String()
	if !strings.Contains(out, "HELCFL") || !strings.Contains(out, "accuracy") {
		t.Fatalf("chart missing content:\n%s", out)
	}
	// Unevaluated rounds are skipped without crashing.
	recs := summaryRecords()
	recs[0].Evaluated = false
	if AccuracyChart(recs).String() == "" {
		t.Fatal("chart must render with partial evaluations")
	}
}
