package experiments

import (
	"strings"
	"testing"
)

func TestModelAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 16
	kinds := []string{"logistic", "mlp"}
	runs, out := runStudy[modelRun](t)(modelStudy(p, IID, 1, kinds))
	if len(runs) != 2 {
		t.Fatalf("kinds = %d", len(runs))
	}
	// The MLP carries more parameters, hence a bigger C_model and longer
	// uploads on the same fleet.
	if runs[1].Params <= runs[0].Params || runs[1].Bits <= runs[0].Bits {
		t.Fatalf("mlp should outweigh logistic: %+v / %+v", runs[0], runs[1])
	}
	if runs[1].Run.Res.TotalTime <= runs[0].Run.Res.TotalTime {
		t.Fatalf("bigger model must lengthen training: %g vs %g", runs[1].Run.Res.TotalTime, runs[0].Run.Res.TotalTime)
	}
	for i, r := range runs {
		if r.Run.Curve.Best() < 0.3 {
			t.Fatalf("%s: accuracy collapsed to %g", kinds[i], r.Run.Curve.Best())
		}
	}
	if !strings.Contains(out, "C_model") {
		t.Fatalf("render missing column:\n%s", out)
	}
}

func TestModelAblationSqueezeNet(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training is slow")
	}
	p := Tiny()
	p.MaxRounds = 50
	p.EvalEvery = 10
	// A conv net from He init needs more optimization steps than one GD
	// pass per round supplies in 50 rounds; 5 local passes at a gentler
	// rate give it ~250 effective steps (the cost model scales with
	// LocalSteps accordingly).
	p.LR = 0.15
	p.Noise = 1.0
	p.LocalSteps = 5
	runs, _ := runStudy[modelRun](t)(modelStudy(p, IID, 1, []string{"squeezenet-mini"}))
	if best := runs[0].Run.Curve.Best(); best <= 0.3 {
		t.Fatalf("CNN not learning: %g", best)
	}
}

func TestModelAblationEmptyKinds(t *testing.T) {
	if _, err := modelStudy(Tiny(), IID, 1, nil); err == nil {
		t.Fatal("empty kinds must error")
	}
}
