package experiments

import (
	"strings"
	"testing"
)

func TestDVFSLevelsAblation(t *testing.T) {
	runs, out := runStudy[*Fig3Result](t)(dvfsLevelsStudy(Tiny(), IID, 1, []int{0, 8, 2}))
	if len(runs) != 3 {
		t.Fatalf("variants = %d", len(runs))
	}
	for i, f3 := range runs {
		if len(f3.Reached) == 0 || !f3.Reached[0] {
			t.Fatalf("variant %d: target unreached", i)
		}
	}
	cont, eight, two := runs[0].ReductionPct[0], runs[1].ReductionPct[0], runs[2].ReductionPct[0]
	// Quantization can only lose savings relative to the continuous ideal,
	// and two coarse levels lose more than eight.
	if eight > cont+1e-9 {
		t.Fatalf("8 levels (%.2f%%) beat continuous (%.2f%%)", eight, cont)
	}
	if two > eight+1e-9 {
		t.Fatalf("2 levels (%.2f%%) beat 8 levels (%.2f%%)", two, eight)
	}
	// With only {f_min, f_max} the snap-up rule sends every mid-range
	// request to f_max, so savings collapse toward zero — the ablation's
	// point: DVFS granularity is a prerequisite for Algorithm 3's gains.
	if cont <= 0 || eight <= 0 {
		t.Fatalf("continuous (%.2f%%) and 8-level (%.2f%%) savings must be positive", cont, eight)
	}
	if !strings.Contains(out, "continuous") || !strings.Contains(out, "8 levels") {
		t.Fatalf("render missing labels:\n%s", out)
	}
}

func TestDVFSLevelsAblationRejectsOneLevel(t *testing.T) {
	if _, err := dvfsLevelsStudy(Tiny(), IID, 1, []int{1}); err == nil {
		t.Fatal("1 level must error")
	}
}
