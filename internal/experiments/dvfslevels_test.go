package experiments

import (
	"strings"
	"testing"
)

func TestDVFSLevelsAblation(t *testing.T) {
	p := Tiny()
	levels := []int{0, 8, 2}
	cells, err := DVFSLevelsCells(p, IID, 1, levels)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := AssembleDVFSLevelsAblation(IID, levels, runCells(t, cells))
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Labels) != 3 || ab.Labels[0] != "continuous" {
		t.Fatalf("labels = %v", ab.Labels)
	}
	for i := range ab.Labels {
		if !ab.Reached[i] {
			t.Fatalf("%s: target unreached", ab.Labels[i])
		}
	}
	cont, eight, two := ab.ReductionPct[0], ab.ReductionPct[1], ab.ReductionPct[2]
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
	if !strings.Contains(ab.Render().String(), "continuous") {
		t.Fatal("render missing baseline")
	}
}

func TestDVFSLevelsAblationRejectsOneLevel(t *testing.T) {
	if _, err := DVFSLevelsCells(Tiny(), IID, 1, []int{1}); err == nil {
		t.Fatal("1 level must error")
	}
}
