package experiments

import (
	"strings"
	"testing"
)

func TestRunMultiSeed(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 16
	runs, out := runStudy[schemeRun](t)(multiSeedStudy(p, IID, []int64{1, 2}))
	if len(runs) != 2*len(SchemeOrder) {
		t.Fatalf("%d runs, want one per (seed, scheme)", len(runs))
	}
	for i, r := range runs {
		if len(r.Curve.Points) == 0 || r.Curve.Best() <= 0 {
			t.Fatalf("run %d (%s): empty curve", i, SchemeOrder[i%len(SchemeOrder)])
		}
	}
	// SL loses to HELCFL on every seed: the rendered win rate is 100%.
	for seed := 0; seed < 2; seed++ {
		h, sl := runs[seed*len(SchemeOrder)], runs[seed*len(SchemeOrder)+4]
		if sl.Curve.Best() >= h.Curve.Best() {
			t.Fatalf("seed %d: SL %g not below HELCFL %g", seed, sl.Curve.Best(), h.Curve.Best())
		}
	}
	var slRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "SL ") {
			slRow = line
		}
	}
	if !strings.Contains(slRow, "100%") {
		t.Fatalf("SL row %q should show a 100%% HELCFL win rate", slRow)
	}
	if !strings.Contains(out, "win rate") || !strings.Contains(out, "2 seeds") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestRunMultiSeedNoSeeds(t *testing.T) {
	if _, err := multiSeedStudy(Tiny(), IID, nil); err == nil {
		t.Fatal("empty seed list must error")
	}
}
