package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"helcfl/internal/grid"
)

// The experiment tests run the Tiny preset with a fixed seed. Everything in
// the pipeline is deterministic, so the asserted orderings are stable.

// runCells executes cells on a default (all-cores) grid.Runner and returns
// their fixed-index results.
func runCells(t testing.TB, cells []grid.Cell) []any {
	t.Helper()
	res, err := (&grid.Runner{}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runStudy returns a runner for a study constructor's (plan, error):
// it runs the plan's cells and returns their typed results plus the plan's
// rendered text, as in runStudy[schemeRun](t)(etaStudy(…), nil).
func runStudy[T any](t testing.TB) func(*Plan, error) ([]T, string) {
	return func(plan *Plan, err error) ([]T, string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		res := runCells(t, plan.Cells)
		typed := make([]T, len(res))
		for i := range res {
			if typed[i], err = cellResult[T](res, i); err != nil {
				t.Fatal(err)
			}
		}
		var out strings.Builder
		if err := plan.Render(res, Output{W: &out}); err != nil {
			t.Fatal(err)
		}
		return typed, out.String()
	}
}

func TestPresetValidate(t *testing.T) {
	for _, p := range []Preset{Paper(), Fast(), Tiny()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	bad := Tiny()
	bad.Fraction = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero fraction must fail")
	}
	bad2 := Tiny()
	bad2.CyclesPerUpdate = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero cycles must fail")
	}
}

func TestLookupPreset(t *testing.T) {
	for _, name := range []string{"paper", "fast", "tiny"} {
		p, err := LookupPreset(name)
		if err != nil {
			t.Fatalf("LookupPreset(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("LookupPreset(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := LookupPreset("nope"); err == nil {
		t.Fatal("unknown preset should error")
	}
}

func TestSlackRichDerivation(t *testing.T) {
	p := SlackRich(Tiny())
	if p.CyclesPerUpdate >= Tiny().CyclesPerUpdate {
		t.Fatal("slack-rich variant must cut compute cycles")
	}
	if p.ChannelNoise <= 0 {
		t.Fatal("slack-rich variant must speed up the uplink")
	}
	if !strings.Contains(p.Name, "slackrich") {
		t.Fatal("variant must rename itself")
	}
}

func TestBuildEnv(t *testing.T) {
	p := Tiny()
	env, err := BuildEnv(p, IID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Devices) != p.Users || len(env.UserData) != p.Users {
		t.Fatalf("fleet sizes %d/%d", len(env.Devices), len(env.UserData))
	}
	total := 0
	for q, d := range env.UserData {
		total += d.N()
		if env.Devices[q].NumSamples != d.N() {
			t.Fatalf("device %d samples %d != data %d", q, env.Devices[q].NumSamples, d.N())
		}
	}
	if total != p.TrainN {
		t.Fatalf("partition covers %d of %d", total, p.TrainN)
	}
	if env.ModelBits <= 0 {
		t.Fatal("model bits unset")
	}
	// π is scaled so one update costs CyclesPerUpdate regardless of the
	// synthetic per-user sample count.
	perUpdate := env.Devices[0].CyclesPerSample * float64(env.Devices[0].NumSamples)
	if math.Abs(perUpdate-p.CyclesPerUpdate)/p.CyclesPerUpdate > 0.05 {
		t.Fatalf("per-update cycles %g, want ≈%g", perUpdate, p.CyclesPerUpdate)
	}
}

func TestBuildEnvNonIIDIsSkewed(t *testing.T) {
	p := Tiny()
	iid, err := BuildEnv(p, IID, 1)
	if err != nil {
		t.Fatal(err)
	}
	non, err := BuildEnv(p, NonIID, 1)
	if err != nil {
		t.Fatal(err)
	}
	meanLabels := func(env *Env) float64 {
		s := 0
		for _, d := range env.UserData {
			s += d.DistinctLabels(p.Classes)
		}
		return float64(s) / float64(len(env.UserData))
	}
	if meanLabels(non) >= meanLabels(iid) {
		t.Fatalf("Non-IID users see %g labels, IID %g; skew missing", meanLabels(non), meanLabels(iid))
	}
}

func TestRunSchemeUnknown(t *testing.T) {
	env, err := BuildEnv(Tiny(), IID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunScheme(env, "nope"); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

// fig2Cache shares one Fig. 2 campaign across the ordering tests (each full
// run costs about a second).
var fig2Cache = map[Setting]*Fig2Result{}

func fig2For(t *testing.T, s Setting) *Fig2Result {
	t.Helper()
	if f, ok := fig2Cache[s]; ok {
		return f
	}
	f, err := AssembleFig2(s, runCells(t, Fig2Cells(Tiny(), s, 1)))
	if err != nil {
		t.Fatal(err)
	}
	fig2Cache[s] = f
	return f
}

func TestFig2AllCurvesPresent(t *testing.T) {
	for _, s := range []Setting{IID, NonIID} {
		fig := fig2For(t, s)
		for _, scheme := range SchemeOrder {
			c := fig.Curve(scheme)
			if len(c.Points) == 0 {
				t.Fatalf("%s/%s: empty curve", s, scheme)
			}
			for i := 1; i < len(c.Points); i++ {
				if c.Points[i].Time <= c.Points[i-1].Time {
					t.Fatalf("%s/%s: time not increasing", s, scheme)
				}
				if c.Points[i].Energy <= c.Points[i-1].Energy {
					t.Fatalf("%s/%s: energy not increasing", s, scheme)
				}
			}
		}
	}
}

// The paper's Fig. 2 orderings: HELCFL reaches the highest accuracies;
// FedCS caps below it; SL collapses.
func TestFig2PaperOrderings(t *testing.T) {
	for _, s := range []Setting{IID, NonIID} {
		fig := fig2For(t, s)
		h := fig.Curve("HELCFL").Best()
		if h < 0.65 {
			t.Fatalf("%s: HELCFL best %g too low, training broken", s, h)
		}
		if f := fig.Curve("FedCS").Best(); f >= h {
			t.Fatalf("%s: FedCS best %g not capped below HELCFL %g", s, f, h)
		}
		if sl := fig.Curve("SL").Best(); sl > 0.45 || sl >= h-0.2 {
			t.Fatalf("%s: SL best %g should collapse far below HELCFL %g", s, sl, h)
		}
		// Classic FL and FEDL share the selection rule; their ceilings are
		// close (the paper calls the curves equivalent).
		c := fig.Curve("ClassicFL").Best()
		fe := fig.Curve("FEDL").Best()
		if math.Abs(c-fe) > 0.08 {
			t.Fatalf("%s: ClassicFL %g and FEDL %g should be close", s, c, fe)
		}
	}
}

// HELCFL's scheduling advantage: lower total delay and lower total energy
// than Classic FL over the same number of rounds.
func TestFig2HELCFLCheaperThanClassic(t *testing.T) {
	for _, s := range []Setting{IID, NonIID} {
		fig := fig2For(t, s)
		h := fig.Curve("HELCFL")
		c := fig.Curve("ClassicFL")
		hLast := h.Points[len(h.Points)-1]
		cLast := c.Points[len(c.Points)-1]
		if hLast.Time >= cLast.Time {
			t.Fatalf("%s: HELCFL total delay %g not below Classic %g", s, hLast.Time, cLast.Time)
		}
		if hLast.Energy >= cLast.Energy {
			t.Fatalf("%s: HELCFL total energy %g not below Classic %g", s, hLast.Energy, cLast.Energy)
		}
	}
}

func TestFig2Deterministic(t *testing.T) {
	a, err := AssembleFig2(IID, runCells(t, Fig2Cells(Tiny(), IID, 7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssembleFig2(IID, runCells(t, Fig2Cells(Tiny(), IID, 7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range SchemeOrder {
		ca, cb := a.Curve(scheme), b.Curve(scheme)
		if len(ca.Points) != len(cb.Points) {
			t.Fatalf("%s: point counts differ", scheme)
		}
		for i := range ca.Points {
			if ca.Points[i] != cb.Points[i] {
				t.Fatalf("%s: point %d differs", scheme, i)
			}
		}
	}
}

func TestTableIConsistentWithCurves(t *testing.T) {
	figs := map[Setting]*Fig2Result{IID: fig2For(t, IID), NonIID: fig2For(t, NonIID)}
	tbl := BuildTableI(Tiny(), figs)
	if len(tbl.Settings) != 2 {
		t.Fatalf("blocks = %d", len(tbl.Settings))
	}
	for _, blk := range tbl.Settings {
		for _, scheme := range SchemeOrder {
			curve := figs[blk.Setting].Curve(scheme)
			for i, target := range blk.Targets {
				wantD, wantOK := curve.TimeToAccuracy(target)
				if blk.Reached[scheme][i] != wantOK {
					t.Fatalf("%s/%s@%.2f: reached mismatch", blk.Setting, scheme, target)
				}
				if wantOK && math.Abs(blk.DelaySec[scheme][i]-wantD) > 1e-9 {
					t.Fatalf("%s/%s@%.2f: delay mismatch", blk.Setting, scheme, target)
				}
			}
		}
		// Delays are monotone in the target for every scheme.
		for _, scheme := range SchemeOrder {
			for i := 1; i < len(blk.Targets); i++ {
				if blk.Reached[scheme][i] && blk.Reached[scheme][i-1] &&
					blk.DelaySec[scheme][i] < blk.DelaySec[scheme][i-1] {
					t.Fatalf("%s/%s: delay decreased with higher target", blk.Setting, scheme)
				}
			}
		}
	}
}

func TestTableIPaperShape(t *testing.T) {
	figs := map[Setting]*Fig2Result{IID: fig2For(t, IID), NonIID: fig2For(t, NonIID)}
	tbl := BuildTableI(Tiny(), figs)
	for _, blk := range tbl.Settings {
		// HELCFL reaches every target.
		for i := range blk.Targets {
			if !blk.Reached["HELCFL"][i] {
				t.Fatalf("%s: HELCFL missed target %.2f", blk.Setting, blk.Targets[i])
			}
		}
		// SL reaches none (the paper's all-✗ row).
		for i := range blk.Targets {
			if blk.Reached["SL"][i] {
				t.Fatalf("%s: SL unexpectedly reached %.2f", blk.Setting, blk.Targets[i])
			}
		}
		// FedCS misses the top target (its accuracy ceiling).
		top := len(blk.Targets) - 1
		if blk.Reached["FedCS"][top] {
			t.Fatalf("%s: FedCS unexpectedly reached top target", blk.Setting)
		}
	}
}

func TestTableIRenderAndSpeedups(t *testing.T) {
	figs := map[Setting]*Fig2Result{IID: fig2For(t, IID)}
	tbl := BuildTableI(Tiny(), figs)
	out := tbl.Settings[0].Render().String()
	if !strings.Contains(out, "HELCFL") || !strings.Contains(out, "min") {
		t.Fatalf("render missing content:\n%s", out)
	}
	sp := tbl.Settings[0].Speedups(0)
	if v, ok := sp["ClassicFL"]; ok && v < -100 {
		t.Fatalf("nonsense speedup %g", v)
	}
}

func TestFig3ReductionPositive(t *testing.T) {
	for _, s := range []Setting{IID, NonIID} {
		f3, err := AssembleFig3(Tiny(), s, runCells(t, Fig3Cells(Tiny(), s, 1)))
		if err != nil {
			t.Fatal(err)
		}
		anyReached := false
		for i := range f3.Targets {
			if !f3.Reached[i] {
				continue
			}
			anyReached = true
			if f3.ReductionPct[i] <= 5 {
				t.Fatalf("%s@%.2f: DVFS reduction %.1f%% too small", s, f3.Targets[i], f3.ReductionPct[i])
			}
			if f3.WithDVFS[i] >= f3.WithoutDVFS[i] {
				t.Fatalf("%s@%.2f: DVFS did not reduce energy", s, f3.Targets[i])
			}
		}
		if !anyReached {
			t.Fatalf("%s: no target reached", s)
		}
		bc, tb := f3.Render()
		if bc.String() == "" || tb.String() == "" {
			t.Fatal("fig3 render empty")
		}
	}
}

// DVFS must not slow convergence: both variants share selection and
// training, so their accuracy-vs-round curves are identical.
func TestFig3DVFSDoesNotDegradeTraining(t *testing.T) {
	env, err := BuildEnv(Tiny(), IID, 3)
	if err != nil {
		t.Fatal(err)
	}
	with, _, err := RunScheme(env, "HELCFL")
	if err != nil {
		t.Fatal(err)
	}
	env2, err := BuildEnv(Tiny(), IID, 3)
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := RunScheme(env2, "HELCFL-noDVFS")
	if err != nil {
		t.Fatal(err)
	}
	if len(with.Points) != len(without.Points) {
		t.Fatal("evaluation cadence differs")
	}
	for i := range with.Points {
		if with.Points[i].Accuracy != without.Points[i].Accuracy {
			t.Fatalf("round %d: accuracy differs with DVFS", with.Points[i].Round)
		}
		if with.Points[i].Time > without.Points[i].Time+1e-9 {
			t.Fatalf("round %d: DVFS lengthened cumulative delay", with.Points[i].Round)
		}
	}
}

func TestSlackRichRegimeIncreasesSavings(t *testing.T) {
	base, err := AssembleFig3(Tiny(), IID, runCells(t, Fig3Cells(Tiny(), IID, 1)))
	if err != nil {
		t.Fatal(err)
	}
	rich := SlackRich(Tiny())
	ub, err := AssembleFig3(rich, IID, runCells(t, Fig3Cells(rich, IID, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Compare at the first mutually reached target.
	for i := range base.Targets {
		if base.Reached[i] && ub.Reached[i] {
			if ub.ReductionPct[i] <= base.ReductionPct[i] {
				t.Fatalf("slack-rich saving %.1f%% not above balanced %.1f%%",
					ub.ReductionPct[i], base.ReductionPct[i])
			}
			return
		}
	}
	t.Fatal("no mutually reached target")
}

func TestHeadline(t *testing.T) {
	figs := map[Setting]*Fig2Result{IID: fig2For(t, IID), NonIID: fig2For(t, NonIID)}
	tbl := BuildTableI(Tiny(), figs)
	f3, err := AssembleFig3(Tiny(), IID, runCells(t, Fig3Cells(Tiny(), IID, 1)))
	if err != nil {
		t.Fatal(err)
	}
	h := BuildHeadline(figs, tbl, map[Setting]*Fig3Result{IID: f3})
	if h.BestAccuracyGainPct <= 20 {
		t.Fatalf("accuracy gain %.1f%% too small (SL gap should dominate)", h.BestAccuracyGainPct)
	}
	if !strings.Contains(h.BestAccuracyGainVs, "SL") {
		t.Fatalf("largest gain should be vs SL, got %s", h.BestAccuracyGainVs)
	}
	if h.BestEnergySavingPct <= 5 {
		t.Fatalf("energy saving %.1f%% too small", h.BestEnergySavingPct)
	}
	out := h.Render().String()
	if !strings.Contains(out, "43.45%") || !strings.Contains(out, "58.25%") {
		t.Fatalf("headline must cite the paper's numbers:\n%s", out)
	}
}

func TestEtaAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 20
	etas := []float64{0.5, 0.9}
	runs, out := runStudy[schemeRun](t)(etaStudy(p, IID, 1, etas), nil)
	if len(runs) != 2 {
		t.Fatalf("ablation sizes wrong: %d", len(runs))
	}
	for i, r := range runs {
		if r.Curve.Best() <= 0 || r.Res.TotalTime <= 0 {
			t.Fatalf("η=%g: degenerate results", etas[i])
		}
	}
	if !strings.Contains(out, "decay coefficient η") {
		t.Fatalf("render missing title:\n%s", out)
	}
}

func TestFractionAblation(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 20
	fractions := []float64{0.125, 0.25}
	runs, out := runStudy[schemeRun](t)(fractionStudy(p, IID, 1, fractions), nil)
	// Selecting more users per round must cost more energy.
	if runs[1].Res.TotalEnergy <= runs[0].Res.TotalEnergy {
		t.Fatalf("C=0.25 energy %g not above C=0.125 energy %g", runs[1].Res.TotalEnergy, runs[0].Res.TotalEnergy)
	}
	if !strings.Contains(out, "total energy") {
		t.Fatalf("render missing column:\n%s", out)
	}
}

func TestClampAblationFindsViolations(t *testing.T) {
	runs, out := runStudy[clampRun](t)(clampStudy(Tiny(), IID, 1, 30), nil)
	ab := runs[0]
	// The literal pseudocode routinely demands frequencies below f_min
	// (that is the point of the clamping study).
	if ab.Violations == 0 {
		t.Skip("no violations in this draw; clamping study vacuous here")
	}
	if ab.WorstBelowPct <= 0 && ab.WorstAbovePct <= 0 {
		t.Fatal("violations recorded but no magnitudes")
	}
	if !strings.Contains(out, "range violations") {
		t.Fatalf("render missing column:\n%s", out)
	}
}

func TestFig1Demo(t *testing.T) {
	demo, err := AssembleFig1Demo(runCells(t, Fig1Cells(Tiny(), 1)))
	if err != nil {
		t.Fatal(err)
	}
	if demo.WithDVFS.Makespan > demo.MaxFreq.Makespan+1e-9 {
		t.Fatalf("DVFS lengthened the round: %g > %g", demo.WithDVFS.Makespan, demo.MaxFreq.Makespan)
	}
	if demo.WithDVFS.TotalSlack > demo.MaxFreq.TotalSlack+1e-9 {
		t.Fatalf("DVFS increased slack: %g vs %g", demo.WithDVFS.TotalSlack, demo.MaxFreq.TotalSlack)
	}
	if demo.WithDVFS.ComputeEnergy >= demo.MaxFreq.ComputeEnergy {
		t.Fatal("DVFS demo saved no energy")
	}
	a, b := demo.Render()
	if !strings.Contains(a.String(), "makespan") || !strings.Contains(b.String(), "makespan") {
		t.Fatal("fig1 render missing makespan")
	}
}

func TestRenderFig2AndCSV(t *testing.T) {
	fig := fig2For(t, IID)
	chart, tb := RenderFig2(fig)
	if !strings.Contains(chart.String(), "HELCFL") {
		t.Fatal("chart missing scheme")
	}
	if !strings.Contains(tb.String(), "best accuracy") {
		t.Fatal("summary missing header")
	}
	csv := Fig2CSV(fig)
	if !strings.Contains(csv, "HELCFL") || !strings.HasPrefix(csv, "setting,scheme,round") {
		t.Fatalf("csv malformed: %.80s", csv)
	}
}
