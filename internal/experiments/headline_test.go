package experiments

import (
	"math"
	"testing"

	"helcfl/internal/metrics"
)

// tableIBlock is a one-target IID Table I block in which every scheme of
// SchemeOrder reaches the target in 100 s unless delays overrides it; a
// negative override marks the scheme as missing the target (✗).
func tableIBlock(delays map[string]float64) TableIBlock {
	blk := TableIBlock{
		Setting:  IID,
		Targets:  []float64{0.8},
		DelaySec: map[string][]float64{},
		Reached:  map[string][]bool{},
	}
	for _, s := range SchemeOrder {
		d, ok := delays[s]
		if !ok {
			d = 100
		}
		blk.DelaySec[s] = []float64{d}
		blk.Reached[s] = []bool{d >= 0}
	}
	return blk
}

// The speedup of Table I and the headline, (T_base / T_HELCFL − 1) × 100,
// at exact values: 50 s against 150 s is 200 %, and a scheme that misses
// the target — or a HELCFL that misses it — yields no entry.
func TestSpeedup(t *testing.T) {
	sp := tableIBlock(map[string]float64{"HELCFL": 50, "FedCS": 150, "SL": -1}).Speedups(0)
	if got, ok := sp["FedCS"]; !ok || math.Abs(got-200) > 1e-9 {
		t.Fatalf("FedCS speedup = %g, %v; want 200%%", got, ok)
	}
	if got := sp["ClassicFL"]; math.Abs(got-100) > 1e-9 {
		t.Fatalf("ClassicFL speedup = %g, want 100%%", got)
	}
	if _, ok := sp["SL"]; ok {
		t.Fatal("speedup vs a scheme that misses the target must be absent")
	}
	if _, ok := sp["HELCFL"]; ok {
		t.Fatal("HELCFL has no speedup over itself")
	}
	if sp := tableIBlock(map[string]float64{"HELCFL": -1}).Speedups(0); len(sp) != 0 {
		t.Fatalf("HELCFL missing the target still reports speedups %v", sp)
	}

	// The paper's headline figure: 913 s against FedCS's 3424 s.
	h := BuildHeadline(nil, &TableIResult{Settings: []TableIBlock{tableIBlock(map[string]float64{"HELCFL": 913, "FedCS": 3424})}}, nil)
	if math.Abs(h.BestSpeedupPct-275.03) > 0.005 || h.BestSpeedupVs != "FedCS (IID @ 80%)" {
		t.Fatalf("headline speedup = %.4f%% vs %q, want 275.03%% vs FedCS", h.BestSpeedupPct, h.BestSpeedupVs)
	}
}

// The headline accuracy enhancement is the percentage-point gap between
// HELCFL's best accuracy and a baseline's: 85 % against 42 % is 43 pp.
func TestAccuracyGain(t *testing.T) {
	fig := &Fig2Result{Setting: NonIID, Curves: map[string]metrics.Curve{}}
	for _, s := range SchemeOrder {
		fig.Curves[s] = metrics.Curve{Points: []metrics.Point{{Accuracy: 0.80}}}
	}
	fig.Curves["HELCFL"] = metrics.Curve{Points: []metrics.Point{{Accuracy: 0.60}, {Accuracy: 0.85}}}
	fig.Curves["SL"] = metrics.Curve{Points: []metrics.Point{{Accuracy: 0.42}}}
	h := BuildHeadline(map[Setting]*Fig2Result{NonIID: fig}, nil, nil)
	if math.Abs(h.BestAccuracyGainPct-43) > 1e-9 || h.BestAccuracyGainVs != "SL (Non-IID)" {
		t.Fatalf("accuracy gain = %g vs %q, want 43 vs SL (Non-IID)", h.BestAccuracyGainPct, h.BestAccuracyGainVs)
	}
}

// Fig. 3's energy saving, (1 − E_DVFS / E_noDVFS) × 100, at exact values:
// 40 J against 100 J is 60 %; a variant that misses the target is not
// reached; a zero no-DVFS energy reports 0 rather than dividing by it.
func TestEnergySaving(t *testing.T) {
	p := Tiny()
	p.IIDTargets = []float64{0.6, 0.9}
	with := metrics.Curve{Points: []metrics.Point{{Energy: 40, Accuracy: 0.6}, {Energy: 70, Accuracy: 0.9}}}
	without := metrics.Curve{Points: []metrics.Point{{Energy: 100, Accuracy: 0.6}}}
	f := fig3FromCurves(p, IID, with, without)
	if !f.Reached[0] || math.Abs(f.ReductionPct[0]-60) > 1e-9 {
		t.Fatalf("saving at 60%% = %g, reached %v; want 60%%", f.ReductionPct[0], f.Reached[0])
	}
	if f.Reached[1] || f.ReductionPct[1] != 0 {
		t.Fatalf("saving vs a variant that misses 90%% = %g, reached %v; want not reached", f.ReductionPct[1], f.Reached[1])
	}
	zero := fig3FromCurves(p, IID, with, metrics.Curve{Points: []metrics.Point{{Energy: 0, Accuracy: 0.9}}})
	if !zero.Reached[0] || zero.ReductionPct[0] != 0 {
		t.Fatalf("saving vs zero energy = %g, reached %v; want 0", zero.ReductionPct[0], zero.Reached[0])
	}
	h := BuildHeadline(nil, nil, map[Setting]*Fig3Result{IID: f})
	if math.Abs(h.BestEnergySavingPct-60) > 1e-9 {
		t.Fatalf("headline saving = %g, want 60", h.BestEnergySavingPct)
	}
}
