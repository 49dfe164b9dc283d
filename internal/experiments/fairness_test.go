package experiments

import (
	"strings"
	"testing"
)

func TestFairnessStudy(t *testing.T) {
	runs, out := runStudy[fairnessRun](t)(fairnessStudy(Tiny(), 1, 80))
	by := map[string]fairnessRun{}
	for i, r := range runs {
		by[fairnessSchemes[i]] = r
	}
	// Random selection is the fairness gold standard; HELCFL's decay keeps
	// it close; FedCS's fixed cohort is maximally unfair.
	if by["FedCS"].Jain >= by["HELCFL"].Jain {
		t.Fatalf("FedCS Jain %g not below HELCFL %g", by["FedCS"].Jain, by["HELCFL"].Jain)
	}
	if by["HELCFL"].Jain < 0.8 {
		t.Fatalf("HELCFL Jain %g too unfair; decay broken", by["HELCFL"].Jain)
	}
	if by["HELCFL"].Coverage != 1 {
		t.Fatalf("HELCFL coverage %g, want full fleet", by["HELCFL"].Coverage)
	}
	if by["FedCS"].Coverage >= 1 {
		t.Fatal("FedCS should not cover the full fleet")
	}
	if !strings.Contains(out, "Jain") {
		t.Fatal("render missing index")
	}
}

func TestFairnessStudyBadRounds(t *testing.T) {
	if _, err := fairnessStudy(Tiny(), 1, 0); err == nil {
		t.Fatal("zero rounds must error")
	}
}
