package experiments

import (
	"strings"
	"testing"
)

// deadlineRows reads the deadline table back: scheme → (rounds completed,
// best accuracy) as rendered.
func deadlineRows(t *testing.T, out string) map[string][2]string {
	t.Helper()
	rows := map[string][2]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 {
			rows[f[0]] = [2]string{f[1], f[2]}
		}
	}
	return rows
}

func TestDeadlineBudget(t *testing.T) {
	// A budget of ~1/3 of the usual campaign duration forces the deadline
	// exit for every scheme.
	runs, out := runStudy[schemeRun](t)(deadlineStudy(Tiny(), IID, 1, 120))
	rows := deadlineRows(t, out)
	best := map[string]float64{}
	for i, scheme := range SchemeOrder {
		row, ok := rows[scheme]
		if !ok {
			t.Fatalf("missing scheme %s:\n%s", scheme, out)
		}
		if row[0] == "0" {
			t.Fatalf("%s completed no rounds", scheme)
		}
		best[scheme] = runs[i].Curve.Best()
	}
	// HELCFL's cheaper rounds let it out-train Classic FL under the budget
	// (the paper's joint objective).
	if best["HELCFL"] < best["ClassicFL"]-0.05 {
		t.Fatalf("HELCFL %g far below ClassicFL %g under budget", best["HELCFL"], best["ClassicFL"])
	}
	// SL stays collapsed regardless of budget.
	if best["SL"] >= best["HELCFL"] {
		t.Fatal("SL should trail under any budget")
	}
	if !strings.Contains(out, "constraint 14") {
		t.Fatalf("render missing title:\n%s", out)
	}
}

func TestDeadlineBudgetRejectsBadBudget(t *testing.T) {
	if _, err := deadlineStudy(Tiny(), IID, 1, 0); err == nil {
		t.Fatal("zero budget must error")
	}
}

func TestDeadlineBudgetMoreTimeNeverHurts(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 40
	short, _ := runStudy[schemeRun](t)(deadlineStudy(p, IID, 2, 60))
	long, _ := runStudy[schemeRun](t)(deadlineStudy(p, IID, 2, 240))
	for i, scheme := range SchemeOrder[:2] { // HELCFL, ClassicFL
		if long[i].Curve.Best() < short[i].Curve.Best()-1e-9 {
			t.Fatalf("%s: more budget reduced accuracy %g → %g",
				scheme, short[i].Curve.Best(), long[i].Curve.Best())
		}
		if len(long[i].Res.Records) < len(short[i].Res.Records) {
			t.Fatalf("%s: more budget completed fewer rounds", scheme)
		}
	}
}
