package experiments

import (
	"strings"
	"testing"
)

func TestRBAblation(t *testing.T) {
	cells, err := RBCells(Tiny(), 1, 25, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := AssembleRBAblation(runCells(t, cells))
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Makespan) != 3 {
		t.Fatalf("entries = %d", len(ab.Makespan))
	}
	for i, s := range ab.Makespan {
		if s.N != 25 || s.Mean <= 0 {
			t.Fatalf("k=%d: summary %+v", ab.Ks[i], s)
		}
	}
	out := ab.Render().String()
	if !strings.Contains(out, "serial TDMA") {
		t.Fatalf("render missing baseline:\n%s", out)
	}
}

func TestRBAblationBadArgs(t *testing.T) {
	if _, err := RBCells(Tiny(), 1, 0, []int{1}); err == nil {
		t.Fatal("zero rounds must error")
	}
	if _, err := RBCells(Tiny(), 1, 5, nil); err == nil {
		t.Fatal("no channel counts must error")
	}
}

// In the compute-dominated calibrated regime, splitting the channel can
// only help when queueing dominates; assert the serial baseline is not
// strictly worst everywhere (sanity on the trade-off logic).
func TestRBAblationTradeOffVisible(t *testing.T) {
	cells, err := RBCells(Tiny(), 2, 20, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := AssembleRBAblation(runCells(t, cells))
	if err != nil {
		t.Fatal(err)
	}
	serial := ab.Makespan[0].Mean
	parallel := ab.Makespan[1].Mean
	// The two interpretations must actually differ — otherwise the
	// ablation is vacuous.
	if serial == parallel {
		t.Fatal("serial and parallel interpretations coincide")
	}
}
