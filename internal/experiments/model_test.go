package experiments

import (
	"strings"
	"testing"
)

func TestModelAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 16
	kinds := []string{"logistic", "mlp"}
	cells, err := ModelCells(p, IID, 1, kinds)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := AssembleModelAblation(IID, kinds, runCells(t, cells))
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Kinds) != 2 {
		t.Fatalf("kinds = %d", len(ab.Kinds))
	}
	// The MLP carries more parameters, hence a bigger C_model and longer
	// uploads on the same fleet.
	if ab.Params[1] <= ab.Params[0] || ab.Bits[1] <= ab.Bits[0] {
		t.Fatalf("mlp should outweigh logistic: %v / %v", ab.Params, ab.Bits)
	}
	if ab.TimeSec[1] <= ab.TimeSec[0] {
		t.Fatalf("bigger model must lengthen training: %g vs %g", ab.TimeSec[1], ab.TimeSec[0])
	}
	for i := range ab.Kinds {
		if ab.Best[i] < 0.3 {
			t.Fatalf("%s: accuracy collapsed to %g", ab.Kinds[i], ab.Best[i])
		}
	}
	out := ab.Render().String()
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
	kinds := []string{"squeezenet-mini"}
	cells, err := ModelCells(p, IID, 1, kinds)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := AssembleModelAblation(IID, kinds, runCells(t, cells))
	if err != nil {
		t.Fatal(err)
	}
	if ab.Best[0] <= 0.3 {
		t.Fatalf("CNN not learning: %g", ab.Best[0])
	}
}

func TestModelAblationEmptyKinds(t *testing.T) {
	if _, err := ModelCells(Tiny(), IID, 1, nil); err == nil {
		t.Fatal("empty kinds must error")
	}
}
