package experiments

import (
	"strings"
	"testing"
)

func TestDropoutAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 30
	dropouts := []float64{0, 0.3}
	ab, err := AssembleDropoutAblation(p, IID, dropouts, runCells(t, DropoutCells(p, IID, 1, dropouts)))
	if err != nil {
		t.Fatal(err)
	}
	if ab.FailedUploads[0] != 0 {
		t.Fatalf("clean run lost %d uploads", ab.FailedUploads[0])
	}
	if ab.FailedUploads[1] == 0 {
		t.Fatal("30%% dropout lost no uploads")
	}
	// Training degrades gracefully: the faulted run still learns.
	if ab.Best[1] < 0.35 {
		t.Fatalf("dropout run collapsed to %g", ab.Best[1])
	}
	out := ab.Render().String()
	if !strings.Contains(out, "lost uploads") {
		t.Fatalf("render missing column:\n%s", out)
	}
}

func TestFadingAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 20
	sigmas := []float64{0, 0.6}
	ab, err := AssembleFadingAblation(IID, sigmas, runCells(t, FadingCells(p, IID, 1, sigmas)))
	if err != nil {
		t.Fatal(err)
	}
	// Fading perturbs realized delays relative to the static plan.
	if ab.TimeSec[0] == ab.TimeSec[1] {
		t.Fatal("fading must change total delay")
	}
	// But not training accuracy (same selections, same data).
	if ab.Best[0] != ab.Best[1] {
		t.Fatalf("fading changed accuracy: %g vs %g", ab.Best[0], ab.Best[1])
	}
	if ab.Render().String() == "" {
		t.Fatal("render empty")
	}
}
