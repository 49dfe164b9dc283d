package experiments

import (
	"strings"
	"testing"
)

func TestDropoutAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 30
	runs, out := runStudy[schemeRun](t)(dropoutStudy(p, IID, 1, []float64{0, 0.3}), nil)
	failed := func(r schemeRun) int {
		n := 0
		for _, rec := range r.Res.Records {
			n += rec.Failed
		}
		return n
	}
	if n := failed(runs[0]); n != 0 {
		t.Fatalf("clean run lost %d uploads", n)
	}
	if failed(runs[1]) == 0 {
		t.Fatal("30%% dropout lost no uploads")
	}
	// Training degrades gracefully: the faulted run still learns.
	if best := runs[1].Curve.Best(); best < 0.35 {
		t.Fatalf("dropout run collapsed to %g", best)
	}
	if !strings.Contains(out, "lost uploads") {
		t.Fatalf("render missing column:\n%s", out)
	}
}

func TestFadingAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 20
	runs, out := runStudy[schemeRun](t)(fadingStudy(p, IID, 1, []float64{0, 0.6}), nil)
	// Fading perturbs realized delays relative to the static plan.
	if runs[0].Res.TotalTime == runs[1].Res.TotalTime {
		t.Fatal("fading must change total delay")
	}
	// But not training accuracy (same selections, same data).
	if runs[0].Curve.Best() != runs[1].Curve.Best() {
		t.Fatalf("fading changed accuracy: %g vs %g", runs[0].Curve.Best(), runs[1].Curve.Best())
	}
	if !strings.Contains(out, "block-fading") {
		t.Fatalf("render missing title:\n%s", out)
	}
}
