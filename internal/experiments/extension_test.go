package experiments

import (
	"strings"
	"testing"
)

func TestLossAwareExtension(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 30
	lambdas := normalizeLambdas([]float64{1.0})
	ext, err := AssembleLossAwareExtension(p, NonIID, lambdas, runCells(t, LossAwareCells(p, NonIID, 1, lambdas)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Lambdas) != 2 || ext.Lambdas[0] != 0 {
		t.Fatalf("λ=0 baseline missing: %v", ext.Lambdas)
	}
	for i := range ext.Lambdas {
		if ext.Best[i] < 0.3 {
			t.Fatalf("λ=%g: training collapsed to %g", ext.Lambdas[i], ext.Best[i])
		}
	}
	out := ext.Render().String()
	if !strings.Contains(out, "λ") || !strings.Contains(out, "0.0") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestLossAwareLambdaZeroMatchesBaseScheduler(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 15
	env, err := BuildEnv(p, IID, 4)
	if err != nil {
		t.Fatal(err)
	}
	baseCurve, _, err := RunScheme(env, "HELCFL")
	if err != nil {
		t.Fatal(err)
	}
	lambdas := normalizeLambdas(nil)
	ext, err := AssembleLossAwareExtension(p, IID, lambdas, runCells(t, LossAwareCells(p, IID, 4, lambdas)))
	if err != nil {
		t.Fatal(err)
	}
	// λ=0 uses identical selection, so the accuracy trajectory matches the
	// paper's scheduler exactly.
	if ext.Best[0] != baseCurve.Best() {
		t.Fatalf("λ=0 best %g differs from base HELCFL %g", ext.Best[0], baseCurve.Best())
	}
}
