package experiments

import (
	"strings"
	"testing"
)

func TestBatteryCampaignLifetimes(t *testing.T) {
	runs, out := runStudy[batteryRun](t)(BatteryPlan(Tiny(), IID, 1, 6))
	byScheme := map[string]batteryRun{}
	for i, r := range runs {
		byScheme[batterySchemes[i]] = r
	}
	rounds := func(scheme string) int { return len(byScheme[scheme].Run.Res.Records) }
	// Algorithm 3's lifetime contribution: HELCFL survives strictly more
	// rounds than the same selection at maximum frequency.
	if rounds("HELCFL") <= rounds("HELCFL-noDVFS") {
		t.Fatalf("DVFS did not extend lifetime: %d vs %d rounds", rounds("HELCFL"), rounds("HELCFL-noDVFS"))
	}
	// FedCS concentrates load on its fixed fast cohort and halts earliest.
	for _, scheme := range []string{"HELCFL", "ClassicFL", "FEDL"} {
		if rounds("FedCS") >= rounds(scheme) {
			t.Fatalf("FedCS (%d rounds) should halt before %s (%d rounds)", rounds("FedCS"), scheme, rounds(scheme))
		}
	}
	if !byScheme["FedCS"].Run.Res.HaltedByDeadFleet {
		t.Fatal("FedCS must halt when its cohort dies")
	}
	// Longer training under the same budget converts into accuracy.
	if h, f := byScheme["HELCFL"].Run.Curve.Best(), byScheme["FedCS"].Run.Curve.Best(); h <= f {
		t.Fatalf("HELCFL %g should out-train FedCS %g under batteries", h, f)
	}
	if !strings.Contains(out, "devices alive") || !strings.Contains(out, "halted") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

func TestBatteryCampaignBadBudget(t *testing.T) {
	if _, err := BatteryPlan(Tiny(), IID, 1, 0); err == nil {
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
