package experiments

import (
	"strings"
	"testing"
)

func TestBatteryCampaignLifetimes(t *testing.T) {
	cells, err := BatteryCells(Tiny(), IID, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := AssembleBatteryCampaign(IID, runCells(t, cells))
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 3's lifetime contribution: HELCFL survives strictly more
	// rounds than the same selection at maximum frequency.
	if bc.RoundsDone["HELCFL"] <= bc.RoundsDone["HELCFL-noDVFS"] {
		t.Fatalf("DVFS did not extend lifetime: %d vs %d rounds",
			bc.RoundsDone["HELCFL"], bc.RoundsDone["HELCFL-noDVFS"])
	}
	// FedCS concentrates load on its fixed fast cohort and halts earliest.
	for _, scheme := range []string{"HELCFL", "ClassicFL", "FEDL"} {
		if bc.RoundsDone["FedCS"] >= bc.RoundsDone[scheme] {
			t.Fatalf("FedCS (%d rounds) should halt before %s (%d rounds)",
				bc.RoundsDone["FedCS"], scheme, bc.RoundsDone[scheme])
		}
	}
	if !bc.Halted["FedCS"] {
		t.Fatal("FedCS must halt when its cohort dies")
	}
	// Longer training under the same budget converts into accuracy.
	if bc.Best["HELCFL"] <= bc.Best["FedCS"] {
		t.Fatalf("HELCFL %g should out-train FedCS %g under batteries",
			bc.Best["HELCFL"], bc.Best["FedCS"])
	}
	out := bc.Render().String()
	if !strings.Contains(out, "devices alive") || !strings.Contains(out, "halted") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

func TestBatteryCampaignBadBudget(t *testing.T) {
	if _, err := BatteryCells(Tiny(), IID, 1, 0); err == nil {
		t.Fatal("zero budget must error")
	}
}

func TestEstimateSelectedUserRoundEnergy(t *testing.T) {
	env, err := BuildEnv(Tiny(), IID, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := EstimateSelectedUserRoundEnergy(env)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Fatalf("per-selection energy = %g", e)
	}
}
