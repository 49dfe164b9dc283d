package experiments

import (
	"strings"
	"testing"
)

func TestPartitionAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 24
	runs, out := runStudy[partitionRun](t)(partitionStudy(p, 1, []float64{0.2, 5.0}), nil)
	if len(runs) != 3 {
		t.Fatalf("entries = %d", len(runs))
	}
	// Dirichlet α=0.2 is more skewed than α=5 — fewer labels per user.
	if runs[1].MeanLabels >= runs[2].MeanLabels {
		t.Fatalf("label skew ordering wrong: α=0.2 → %g, α=5 → %g", runs[1].MeanLabels, runs[2].MeanLabels)
	}
	for i, r := range runs {
		if r.Run.Curve.Best() < 0.3 {
			t.Fatalf("family %d: accuracy collapsed to %g", i, r.Run.Curve.Best())
		}
	}
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
