package experiments

import (
	"testing"

	"helcfl/internal/grid"
)

// TestHierSingleEdgeMatchesFlatEndToEnd pins the whole E = 1 hierarchical
// pipeline — planner, edge round simulation, two-level FedAvg — bit-identical
// to the flat HELCFL training run: same selections, same delays, same
// evaluated accuracies at every point.
func TestHierSingleEdgeMatchesFlatEndToEnd(t *testing.T) {
	p := goldenPreset()
	flat, _, err := RunScheme(mustEnv(t, p, IID, 3), "HELCFL")
	if err != nil {
		t.Fatal(err)
	}
	hs, err := AssembleHierStudy(IID, []int{1}, runCells(t, mustHierCells(t, p, IID, 3, []int{1})))
	if err != nil {
		t.Fatal(err)
	}
	res := runCells(t, mustHierCells(t, p, IID, 3, []int{1}))
	hr, err := cellResult[hierRun](res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.Curve.Points) != len(flat.Points) {
		t.Fatalf("point counts %d vs %d", len(hr.Curve.Points), len(flat.Points))
	}
	for i := range flat.Points {
		if flat.Points[i] != hr.Curve.Points[i] {
			t.Fatalf("point %d diverges: flat %+v, hier %+v", i, flat.Points[i], hr.Curve.Points[i])
		}
	}
	if hs.BestAcc[0] != hr.Res.BestAccuracy {
		t.Fatalf("study best acc %v != run best acc %v", hs.BestAcc[0], hr.Res.BestAccuracy)
	}
}

func mustEnv(t *testing.T, p Preset, s Setting, seed int64) *Env {
	t.Helper()
	env, err := CachedEnv(p, s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func mustHierCells(t *testing.T, p Preset, s Setting, seed int64, counts []int) []grid.Cell {
	t.Helper()
	cells, err := HierCells(p, s, seed, counts)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestGoldenFileHier pins the hierarchical edge-aggregation sweep at golden
// scale: 8 users across E ∈ {1, 2, 4} edge aggregators. E = 1 doubles as
// yet another fingerprint of the flat pipeline (it is bit-identical to it).
func TestGoldenFileHier(t *testing.T) {
	counts := []int{1, 2, 4}
	hs, err := AssembleHierStudy(IID, counts, runCells(t, mustHierCells(t, goldenPreset(), IID, 3, counts)))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "hier_iid", hs)
}

// TestHierCellsRejectsBadCounts covers the constructor guards.
func TestHierCellsRejectsBadCounts(t *testing.T) {
	p := goldenPreset()
	if _, err := HierCells(p, IID, 3, []int{0}); err == nil {
		t.Fatal("zero edge count must be rejected")
	}
	if _, err := HierCells(p, IID, 3, []int{p.Users + 1}); err == nil {
		t.Fatal("edge count above fleet size must be rejected")
	}
}
