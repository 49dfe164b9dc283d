package experiments

import (
	"strings"
	"testing"
)

func TestRBAblation(t *testing.T) {
	ks := []int{1, 2, 4}
	runs, out := runStudy[rbRun](t)(rbStudy(Tiny(), 1, 25, ks))
	if len(runs[0].Makespan) != 3 {
		t.Fatalf("entries = %d", len(runs[0].Makespan))
	}
	for i, s := range runs[0].Makespan {
		if s.N != 25 || s.Mean <= 0 {
			t.Fatalf("k=%d: summary %+v", ks[i], s)
		}
	}
	if !strings.Contains(out, "serial TDMA") {
		t.Fatalf("render missing baseline:\n%s", out)
	}
}

func TestRBAblationBadArgs(t *testing.T) {
	if _, err := rbStudy(Tiny(), 1, 0, []int{1}); err == nil {
		t.Fatal("zero rounds must error")
	}
	if _, err := rbStudy(Tiny(), 1, 5, nil); err == nil {
		t.Fatal("no channel counts must error")
	}
}

// In the compute-dominated calibrated regime, splitting the channel can
// only help when queueing dominates; assert the serial baseline is not
// strictly worst everywhere (sanity on the trade-off logic).
func TestRBAblationTradeOffVisible(t *testing.T) {
	runs, _ := runStudy[rbRun](t)(rbStudy(Tiny(), 2, 20, []int{1, 4}))
	// The two interpretations must actually differ — otherwise the
	// ablation is vacuous.
	if runs[0].Makespan[0].Mean == runs[0].Makespan[1].Mean {
		t.Fatal("serial and parallel interpretations coincide")
	}
}
