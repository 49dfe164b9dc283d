package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
	"helcfl/internal/selection"
	"helcfl/internal/sim"
)

// EtaAblation sweeps HELCFL's decay coefficient η and reports best accuracy
// and total training delay per value — the design-choice study for Eq. (20).
type EtaAblation struct {
	Setting Setting
	Etas    []float64
	Best    []float64
	TimeSec []float64
}

// EtaCells returns one HELCFL training cell per η value. The variant names
// the preset mutation so the keys stay distinct from unmutated runs.
func EtaCells(p Preset, s Setting, seed int64, etas []float64) []grid.Cell {
	cells := make([]grid.Cell, 0, len(etas))
	for _, eta := range etas {
		pp := p
		pp.Eta = eta
		cells = append(cells, trainCell(pp, s, seed, "HELCFL", fmt.Sprintf("eta=%g", eta), nil))
	}
	return cells
}

// AssembleEtaAblation folds EtaCells results into the sweep.
func AssembleEtaAblation(s Setting, etas []float64, res []any) (*EtaAblation, error) {
	if len(res) != len(etas) {
		return nil, fmt.Errorf("experiments: eta sweep got %d results, want %d", len(res), len(etas))
	}
	out := &EtaAblation{Setting: s, Etas: etas}
	for i := range etas {
		r, err := cellResult[schemeRun](res, i)
		if err != nil {
			return nil, err
		}
		out.Best = append(out.Best, r.Curve.Best())
		out.TimeSec = append(out.TimeSec, r.Res.TotalTime)
	}
	return out, nil
}

// Render produces the η-sweep table.
func (a *EtaAblation) Render() *report.Table {
	tb := report.NewTable(fmt.Sprintf("Ablation (%s): decay coefficient η", a.Setting),
		"η", "best accuracy", "total delay")
	for i, eta := range a.Etas {
		tb.AddRow(fmt.Sprintf("%.2f", eta),
			metrics.FormatPercent(a.Best[i]),
			metrics.FormatDelay(a.TimeSec[i], true))
	}
	return tb
}

// FractionAblation sweeps the selection fraction C.
type FractionAblation struct {
	Setting   Setting
	Fractions []float64
	Best      []float64
	TimeSec   []float64
	EnergyJ   []float64
}

// FractionCells returns one HELCFL training cell per selection fraction.
func FractionCells(p Preset, s Setting, seed int64, fractions []float64) []grid.Cell {
	cells := make([]grid.Cell, 0, len(fractions))
	for _, c := range fractions {
		pp := p
		pp.Fraction = c
		cells = append(cells, trainCell(pp, s, seed, "HELCFL", fmt.Sprintf("C=%g", c), nil))
	}
	return cells
}

// AssembleFractionAblation folds FractionCells results into the sweep.
func AssembleFractionAblation(s Setting, fractions []float64, res []any) (*FractionAblation, error) {
	if len(res) != len(fractions) {
		return nil, fmt.Errorf("experiments: fraction sweep got %d results, want %d", len(res), len(fractions))
	}
	out := &FractionAblation{Setting: s, Fractions: fractions}
	for i := range fractions {
		r, err := cellResult[schemeRun](res, i)
		if err != nil {
			return nil, err
		}
		out.Best = append(out.Best, r.Curve.Best())
		out.TimeSec = append(out.TimeSec, r.Res.TotalTime)
		out.EnergyJ = append(out.EnergyJ, r.Res.TotalEnergy)
	}
	return out, nil
}

// Render produces the C-sweep table.
func (a *FractionAblation) Render() *report.Table {
	tb := report.NewTable(fmt.Sprintf("Ablation (%s): selection fraction C", a.Setting),
		"C", "best accuracy", "total delay", "total energy (J)")
	for i, c := range a.Fractions {
		tb.AddRow(fmt.Sprintf("%.2f", c),
			metrics.FormatPercent(a.Best[i]),
			metrics.FormatDelay(a.TimeSec[i], true),
			fmt.Sprintf("%.1f", a.EnergyJ[i]))
	}
	return tb
}

// ClampAblation contrasts Algorithm 3 with constraint-(15) clamping against
// the literal pseudocode, measuring how often and how far the literal
// frequencies leave the device range.
type ClampAblation struct {
	Rounds        int
	Violations    int
	WorstBelowPct float64 // worst relative undershoot below f_min
	WorstAbovePct float64 // worst relative overshoot above f_max
}

// ClampCells wraps the clamping study as a single cell: the replay is one
// indivisible computation, not a sweep.
func ClampCells(p Preset, s Setting, seed int64, rounds int) []grid.Cell {
	return []grid.Cell{{
		Experiment: "clamp",
		Preset:     p.Name,
		Setting:    string(s),
		Scheme:     "HELCFL",
		Variant:    fmt.Sprintf("rounds=%d", rounds),
		Seed:       seed,
		Run: func(context.Context, *rand.Rand) (any, error) {
			return clampStudy(p, s, seed, rounds)
		},
	}}
}

// AssembleClampAblation extracts the single clamp-study result.
func AssembleClampAblation(res []any) (*ClampAblation, error) {
	if len(res) != 1 {
		return nil, fmt.Errorf("experiments: clamp study got %d results, want 1", len(res))
	}
	return cellResult[*ClampAblation](res, 0)
}

// clampStudy is the serial body of the clamping study.
func clampStudy(p Preset, s Setting, seed int64, rounds int) (*ClampAblation, error) {
	env, err := CachedEnv(p, s, seed)
	if err != nil {
		return nil, err
	}
	h, err := selection.NewHELCFL(env.Devices, env.Channel, env.ModelBits, core.Params{
		Eta: p.Eta, Fraction: p.Fraction, StepsPerRound: p.LocalSteps, Clamp: true,
	})
	if err != nil {
		return nil, err
	}
	out := &ClampAblation{Rounds: rounds}
	for j := 0; j < rounds; j++ {
		sel, _ := h.PlanRound(j)
		devs := make([]*device.Device, len(sel))
		for i, q := range sel {
			devs[i] = env.Devices[q]
		}
		raw := core.FrequencyPlan(devs, env.Channel, env.ModelBits, p.LocalSteps, false)
		for i, f := range raw {
			d := devs[i]
			if f < d.FMin {
				out.Violations++
				if u := (d.FMin - f) / d.FMin * 100; u > out.WorstBelowPct {
					out.WorstBelowPct = u
				}
			} else if f > d.FMax {
				out.Violations++
				if o := (f - d.FMax) / d.FMax * 100; o > out.WorstAbovePct {
					out.WorstAbovePct = o
				}
			}
		}
	}
	return out, nil
}

// Render produces the clamping-study table.
func (a *ClampAblation) Render() *report.Table {
	tb := report.NewTable("Ablation: literal Algorithm 3 vs constraint (15)",
		"rounds", "range violations", "worst below f_min", "worst above f_max")
	tb.AddRow(fmt.Sprintf("%d", a.Rounds),
		fmt.Sprintf("%d", a.Violations),
		fmt.Sprintf("%.1f%%", a.WorstBelowPct),
		fmt.Sprintf("%.1f%%", a.WorstAbovePct))
	return tb
}

// Fig1Demo reproduces the paper's Fig. 1 illustration: it runs one HELCFL
// selection, simulates the cohort at maximum frequency, and returns the
// timeline (with its stop-and-wait slack) next to the Algorithm 3 timeline
// that reclaims it.
type Fig1Demo struct {
	MaxFreq  sim.RoundResult
	WithDVFS sim.RoundResult
}

// Fig1Cells wraps the Fig. 1 demonstration as a single cell.
func Fig1Cells(p Preset, seed int64) []grid.Cell {
	return []grid.Cell{{
		Experiment: "fig1",
		Preset:     p.Name,
		Setting:    string(IID),
		Scheme:     "HELCFL",
		Seed:       seed,
		Run: func(context.Context, *rand.Rand) (any, error) {
			return fig1Demo(p, seed)
		},
	}}
}

// AssembleFig1Demo extracts the single Fig. 1 result.
func AssembleFig1Demo(res []any) (*Fig1Demo, error) {
	if len(res) != 1 {
		return nil, fmt.Errorf("experiments: fig1 demo got %d results, want 1", len(res))
	}
	return cellResult[*Fig1Demo](res, 0)
}

// fig1Demo is the serial body of the demonstration.
func fig1Demo(p Preset, seed int64) (*Fig1Demo, error) {
	env, err := CachedEnv(p, IID, seed)
	if err != nil {
		return nil, err
	}
	h, err := selection.NewHELCFL(env.Devices, env.Channel, env.ModelBits, core.Params{
		Eta: p.Eta, Fraction: p.Fraction, StepsPerRound: p.LocalSteps, Clamp: true,
	})
	if err != nil {
		return nil, err
	}
	sel, freqs := h.PlanRound(0)
	devs := make([]*device.Device, len(sel))
	for i, q := range sel {
		devs[i] = env.Devices[q]
	}
	return &Fig1Demo{
		MaxFreq:  sim.SimulateRound(devs, sim.MaxFrequencies(devs), env.Channel, env.ModelBits, p.LocalSteps),
		WithDVFS: sim.SimulateRound(devs, freqs, env.Channel, env.ModelBits, p.LocalSteps),
	}, nil
}

// Render draws both timelines as tables of per-user intervals.
func (f *Fig1Demo) Render() (*report.Table, *report.Table) {
	mk := func(title string, r sim.RoundResult) *report.Table {
		tb := report.NewTable(title, "user", "freq (GHz)", "compute ends", "upload", "wait (slack)")
		for _, u := range r.Users {
			tb.AddRow(
				fmt.Sprintf("v%d", u.User),
				fmt.Sprintf("%.2f", u.Freq/1e9),
				fmt.Sprintf("%.2fs", u.ComputeDelay),
				fmt.Sprintf("[%.2fs, %.2fs]", u.UploadStart, u.UploadEnd),
				fmt.Sprintf("%.2fs", u.Wait),
			)
		}
		tb.AddRow("—", "—", "—", fmt.Sprintf("makespan %.2fs", r.Makespan),
			fmt.Sprintf("total %.2fs", r.TotalSlack))
		return tb
	}
	return mk("Fig. 1 reproduction: traditional TDMA FL (max frequency)", f.MaxFreq),
		mk("Fig. 1 reproduction: HELCFL DVFS (Algorithm 3)", f.WithDVFS)
}

// RenderGantt draws both round timelines as Gantt charts — the visual
// reproduction of the paper's Fig. 1.
func (f *Fig1Demo) RenderGantt() (*report.Gantt, *report.Gantt) {
	mk := func(title string, r sim.RoundResult) *report.Gantt {
		g := report.NewGantt(title)
		for _, u := range r.Users {
			g.Add(report.GanttBar{
				Label:       fmt.Sprintf("v%d", u.User),
				ComputeEnd:  u.ComputeDelay,
				UploadStart: u.UploadStart,
				UploadEnd:   u.UploadEnd,
			})
		}
		return g
	}
	return mk("Fig. 1: traditional TDMA FL (max frequency)", f.MaxFreq),
		mk("Fig. 1: HELCFL DVFS (Algorithm 3)", f.WithDVFS)
}

// slackCheck is referenced by tests to assert the demo's invariant.
func (f *Fig1Demo) slackCheck() (float64, float64, error) {
	if f.WithDVFS.Makespan > f.MaxFreq.Makespan+1e-9 {
		return 0, 0, fmt.Errorf("DVFS lengthened the round: %g > %g", f.WithDVFS.Makespan, f.MaxFreq.Makespan)
	}
	return f.MaxFreq.TotalSlack, f.WithDVFS.TotalSlack, nil
}
