package helcfl

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"helcfl/internal/experiments"
	"helcfl/internal/grid"
)

func TestPresetConstructors(t *testing.T) {
	for _, p := range []Preset{PaperPreset(), FastPreset(), TinyPreset()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	if PaperPreset().Users != 100 || PaperPreset().Fraction != 0.1 {
		t.Fatal("paper preset must match Section VII-A")
	}
	ub := SlackRichPreset(TinyPreset())
	if ub.CyclesPerUpdate >= TinyPreset().CyclesPerUpdate {
		t.Fatal("upload-bound preset must cut compute")
	}
}

func TestTrainEndToEnd(t *testing.T) {
	p := TinyPreset()
	p.MaxRounds = 12
	res, err := Train(p, IID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "HELCFL" {
		t.Fatalf("scheme = %s", res.Scheme)
	}
	if len(res.Records) != 12 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if res.BestAccuracy <= 0.15 {
		t.Fatalf("best accuracy %g at chance level", res.BestAccuracy)
	}
}

func TestRunSchemeViaFacade(t *testing.T) {
	p := TinyPreset()
	p.MaxRounds = 10
	env, err := BuildEnv(p, NonIID, 2)
	if err != nil {
		t.Fatal(err)
	}
	curve, res, err := RunScheme(env, "ClassicFL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "ClassicFL" {
		t.Fatalf("scheme = %s", res.Scheme)
	}
	if len(curve.Points) == 0 {
		t.Fatal("empty curve")
	}
}

func TestRunTableIFacade(t *testing.T) {
	p := TinyPreset()
	p.MaxRounds = 16
	tbl, figs, err := RunTableI(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Settings) != 2 || len(figs) != 2 {
		t.Fatal("incomplete Table I campaign")
	}
}

// TestFacadeRunsTheRegistryCells pins that RunFig2, RunTableI and RunFig3
// have no execution path of their own: each result equals the one assembled
// from the registry's plan for that experiment run on a serial grid.Runner.
// It fails if the facade ever grows a private way to run a campaign again.
func TestFacadeRunsTheRegistryCells(t *testing.T) {
	p := TinyPreset()
	p.MaxRounds = 12
	const seed = 3
	settings := []Setting{IID, NonIID}
	planResults := func(name string) []any {
		t.Helper()
		def, ok := experiments.LookupExperiment(name)
		if !ok {
			t.Fatalf("no %s experiment in the registry", name)
		}
		plan, err := def.Plan(p, seed, experiments.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&grid.Runner{Parallel: 1}).Run(context.Background(), plan.Cells)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// fig2 and table1 plans lay out one SchemeOrder-sized panel per setting,
	// IID first.
	panels := func(res []any) map[Setting]*Fig2Result {
		t.Helper()
		n := len(SchemeOrder)
		figs := map[Setting]*Fig2Result{}
		for i, s := range settings {
			f, err := experiments.AssembleFig2(s, res[i*n:(i+1)*n])
			if err != nil {
				t.Fatal(err)
			}
			figs[s] = f
		}
		return figs
	}

	wantFigs := panels(planResults("fig2"))
	for _, s := range settings {
		got, err := RunFig2(p, s, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantFigs[s]) {
			t.Fatalf("RunFig2(%s) differs from the registry's fig2 plan", s)
		}
	}

	wantTblFigs := panels(planResults("table1"))
	tbl, figs, err := RunTableI(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(figs, wantTblFigs) || !reflect.DeepEqual(tbl, experiments.BuildTableI(p, wantTblFigs)) {
		t.Fatal("RunTableI differs from the registry's table1 plan")
	}

	// The fig3 plan lays out a with/without-DVFS cell pair per setting, IID
	// first (the slack-rich pair that follows has no facade counterpart).
	fig3 := planResults("fig3")
	for i, s := range settings {
		want, err := experiments.AssembleFig3(p, s, fig3[2*i:2*i+2])
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunFig3(p, s, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RunFig3(%s) differs from the registry's fig3 plan", s)
		}
	}
}

func TestSchedulerParamsFromPreset(t *testing.T) {
	p := TinyPreset()
	sp := PresetSchedulerParams(p)
	if sp.Eta != p.Eta || sp.Fraction != p.Fraction {
		t.Fatal("params not derived from preset")
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewHELCFLPlannerFacade(t *testing.T) {
	env, err := BuildEnv(TinyPreset(), IID, 4)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := NewHELCFLPlanner(env, PresetSchedulerParams(env.Preset))
	if err != nil {
		t.Fatal(err)
	}
	sel, freqs := planner.PlanRound(0)
	if len(sel) == 0 || len(sel) != len(freqs) {
		t.Fatalf("plan sizes %d/%d", len(sel), len(freqs))
	}
	if !strings.Contains(planner.Name(), "HELCFL") {
		t.Fatalf("planner name %q", planner.Name())
	}
}

func TestSchemeOrderStable(t *testing.T) {
	want := []string{"HELCFL", "ClassicFL", "FedCS", "FEDL", "SL"}
	if len(SchemeOrder) != len(want) {
		t.Fatal("scheme order changed")
	}
	for i := range want {
		if SchemeOrder[i] != want[i] {
			t.Fatalf("SchemeOrder[%d] = %s, want %s", i, SchemeOrder[i], want[i])
		}
	}
}
