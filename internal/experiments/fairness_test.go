package experiments

import (
	"strings"
	"testing"
)

func TestFairnessStudy(t *testing.T) {
	cells, err := FairnessCells(Tiny(), 1, 80)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := AssembleFairnessStudy(80, runCells(t, cells))
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, s := range fs.Schemes {
		idx[s] = i
	}
	// Random selection is the fairness gold standard; HELCFL's decay keeps
	// it close; FedCS's fixed cohort is maximally unfair.
	if fs.Jain[idx["FedCS"]] >= fs.Jain[idx["HELCFL"]] {
		t.Fatalf("FedCS Jain %g not below HELCFL %g", fs.Jain[idx["FedCS"]], fs.Jain[idx["HELCFL"]])
	}
	if fs.Jain[idx["HELCFL"]] < 0.8 {
		t.Fatalf("HELCFL Jain %g too unfair; decay broken", fs.Jain[idx["HELCFL"]])
	}
	if fs.Coverage[idx["HELCFL"]] != 1 {
		t.Fatalf("HELCFL coverage %g, want full fleet", fs.Coverage[idx["HELCFL"]])
	}
	if fs.Coverage[idx["FedCS"]] >= 1 {
		t.Fatal("FedCS should not cover the full fleet")
	}
	if !strings.Contains(fs.Render().String(), "Jain") {
		t.Fatal("render missing index")
	}
}

func TestFairnessStudyBadRounds(t *testing.T) {
	if _, err := FairnessCells(Tiny(), 1, 0); err == nil {
		t.Fatal("zero rounds must error")
	}
}
