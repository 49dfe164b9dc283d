package experiments

import (
	"strings"
	"testing"
)

func TestRunMultiSeed(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 16
	seeds := []int64{1, 2}
	ms, err := AssembleMultiSeed(IID, seeds, runCells(t, MultiSeedCells(p, IID, seeds)))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range SchemeOrder {
		if len(ms.Best[scheme]) != 2 || len(ms.TimeSec[scheme]) != 2 {
			t.Fatalf("%s: missing per-seed observations", scheme)
		}
		s := ms.AccuracySummary(scheme)
		if s.N != 2 || s.Mean <= 0 {
			t.Fatalf("%s: summary %+v", scheme, s)
		}
	}
	// SL loses to HELCFL on every seed.
	if ms.WinRateOverBaseline("SL") != 1 {
		t.Fatalf("HELCFL win rate over SL = %g, want 1", ms.WinRateOverBaseline("SL"))
	}
	out := ms.Render().String()
	if !strings.Contains(out, "win rate") || !strings.Contains(out, "HELCFL") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestRunMultiSeedNoSeeds(t *testing.T) {
	if _, err := AssembleMultiSeed(IID, nil, nil); err == nil {
		t.Fatal("empty seed list must error")
	}
}
