package experiments

import (
	"strings"
	"testing"
)

func TestDeadlineBudget(t *testing.T) {
	p := Tiny()
	// A budget of ~1/3 of the usual campaign duration forces the deadline
	// exit for every scheme.
	cells, err := DeadlineCells(p, IID, 1, 120)
	if err != nil {
		t.Fatal(err)
	}
	db, err := AssembleDeadlineBudget(IID, 120, runCells(t, cells))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range SchemeOrder {
		if _, ok := db.Best[scheme]; !ok {
			t.Fatalf("missing scheme %s", scheme)
		}
		if db.Rounds[scheme] <= 0 {
			t.Fatalf("%s completed no rounds", scheme)
		}
	}
	// HELCFL's cheaper rounds let it out-train Classic FL under the budget
	// (the paper's joint objective).
	if db.Best["HELCFL"] < db.Best["ClassicFL"]-0.05 {
		t.Fatalf("HELCFL %g far below ClassicFL %g under budget",
			db.Best["HELCFL"], db.Best["ClassicFL"])
	}
	// SL stays collapsed regardless of budget.
	if db.Best["SL"] >= db.Best["HELCFL"] {
		t.Fatal("SL should trail under any budget")
	}
	out := db.Render().String()
	if !strings.Contains(out, "constraint 14") {
		t.Fatalf("render missing title:\n%s", out)
	}
}

func TestDeadlineBudgetRejectsBadBudget(t *testing.T) {
	if _, err := DeadlineCells(Tiny(), IID, 1, 0); err == nil {
		t.Fatal("zero budget must error")
	}
}

func TestDeadlineBudgetMoreTimeNeverHurts(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 40
	budget := func(sec float64) *DeadlineBudget {
		cells, err := DeadlineCells(p, IID, 2, sec)
		if err != nil {
			t.Fatal(err)
		}
		db, err := AssembleDeadlineBudget(IID, sec, runCells(t, cells))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	short, long := budget(60), budget(240)
	for _, scheme := range []string{"HELCFL", "ClassicFL"} {
		if long.Best[scheme] < short.Best[scheme]-1e-9 {
			t.Fatalf("%s: more budget reduced accuracy %g → %g",
				scheme, short.Best[scheme], long.Best[scheme])
		}
		if long.Rounds[scheme] < short.Rounds[scheme] {
			t.Fatalf("%s: more budget completed fewer rounds", scheme)
		}
	}
}
