package experiments

import (
	"strings"
	"testing"
)

func TestPartitionAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 24
	alphas := []float64{0.2, 5.0}
	ab, err := AssemblePartitionAblation(p, alphas, runCells(t, PartitionCells(p, 1, alphas)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Labels) != 3 {
		t.Fatalf("entries = %d", len(ab.Labels))
	}
	// Dirichlet α=0.2 is more skewed than α=5 — fewer labels per user.
	if ab.MeanLabels[1] >= ab.MeanLabels[2] {
		t.Fatalf("label skew ordering wrong: α=0.2 → %g, α=5 → %g",
			ab.MeanLabels[1], ab.MeanLabels[2])
	}
	for i := range ab.Labels {
		if ab.Best[i] < 0.3 {
			t.Fatalf("%s: accuracy collapsed to %g", ab.Labels[i], ab.Best[i])
		}
	}
	out := ab.Render().String()
	if !strings.Contains(out, "dirichlet") || !strings.Contains(out, "shards") {
		t.Fatalf("render missing families:\n%s", out)
	}
}

func TestPresetDirichletAlphaChangesPartition(t *testing.T) {
	p := Tiny()
	shard, err := BuildEnv(p, NonIID, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.DirichletAlpha = 0.3
	dir, err := BuildEnv(p, NonIID, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for q := range shard.UserData {
		if shard.UserData[q].N() != dir.UserData[q].N() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Dirichlet alpha did not change the partition")
	}
}
