package experiments

import (
	"fmt"

	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
	"helcfl/internal/wireless"
)

// DropoutAblation sweeps the per-round upload-failure probability — the
// battery/radio faults motivating the paper's energy optimization — and
// reports how gracefully training degrades.
type DropoutAblation struct {
	Setting  Setting
	Dropouts []float64
	Best     []float64
	// RoundsToTarget is the first round reaching the setting's lowest
	// desired accuracy, or -1 when unreached.
	RoundsToTarget []int
	// FailedUploads counts lost uploads across the run.
	FailedUploads []int
}

// DropoutCells returns one HELCFL fault-injection cell per probability.
func DropoutCells(p Preset, s Setting, seed int64, dropouts []float64) []grid.Cell {
	cells := make([]grid.Cell, 0, len(dropouts))
	for _, d := range dropouts {
		prob := d
		cells = append(cells, trainCell(p, s, seed, "HELCFL", fmt.Sprintf("dropout=%g", d),
			func(c *fl.Config) { c.DropoutProb = prob }))
	}
	return cells
}

// AssembleDropoutAblation folds DropoutCells results into the sweep.
func AssembleDropoutAblation(p Preset, s Setting, dropouts []float64, res []any) (*DropoutAblation, error) {
	if len(res) != len(dropouts) {
		return nil, fmt.Errorf("experiments: dropout sweep got %d results, want %d", len(res), len(dropouts))
	}
	out := &DropoutAblation{Setting: s, Dropouts: dropouts}
	target := p.Targets(s)[0]
	for i := range dropouts {
		run, err := cellResult[schemeRun](res, i)
		if err != nil {
			return nil, err
		}
		failed := 0
		for _, r := range run.Res.Records {
			failed += r.Failed
		}
		rounds := -1
		if r, ok := run.Curve.RoundsToAccuracy(target); ok {
			rounds = r
		}
		out.Best = append(out.Best, run.Curve.Best())
		out.RoundsToTarget = append(out.RoundsToTarget, rounds)
		out.FailedUploads = append(out.FailedUploads, failed)
	}
	return out, nil
}

// Render produces the dropout-sweep table.
func (a *DropoutAblation) Render() *report.Table {
	tb := report.NewTable(fmt.Sprintf("Robustness (%s): upload-failure injection", a.Setting),
		"dropout", "lost uploads", "best accuracy", "rounds to first target")
	for i, d := range a.Dropouts {
		rt := "✗"
		if a.RoundsToTarget[i] >= 0 {
			rt = fmt.Sprintf("%d", a.RoundsToTarget[i])
		}
		tb.AddRow(fmt.Sprintf("%.0f%%", d*100),
			fmt.Sprintf("%d", a.FailedUploads[i]),
			metrics.FormatPercent(a.Best[i]),
			rt)
	}
	return tb
}

// FadingAblation sweeps block-fading severity: the scheduler plans on
// stale initialization-phase channel measurements while the realized
// uplink drifts, so round delays diverge from the plan.
type FadingAblation struct {
	Setting Setting
	Sigmas  []float64
	Best    []float64
	TimeSec []float64
	EnergyJ []float64
}

// FadingCells returns one HELCFL block-fading cell per σ.
func FadingCells(p Preset, s Setting, seed int64, sigmas []float64) []grid.Cell {
	cells := make([]grid.Cell, 0, len(sigmas))
	for _, sg := range sigmas {
		sigma := sg
		cells = append(cells, trainCell(p, s, seed, "HELCFL", fmt.Sprintf("fading=%g", sg),
			func(c *fl.Config) {
				if sigma > 0 {
					c.Gains = wireless.NewBlockFading(sigma, seed+7)
				}
			}))
	}
	return cells
}

// AssembleFadingAblation folds FadingCells results into the sweep.
func AssembleFadingAblation(s Setting, sigmas []float64, res []any) (*FadingAblation, error) {
	if len(res) != len(sigmas) {
		return nil, fmt.Errorf("experiments: fading sweep got %d results, want %d", len(res), len(sigmas))
	}
	out := &FadingAblation{Setting: s, Sigmas: sigmas}
	for i := range sigmas {
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

// Render produces the fading-sweep table.
func (a *FadingAblation) Render() *report.Table {
	tb := report.NewTable(fmt.Sprintf("Robustness (%s): block-fading channel", a.Setting),
		"σ", "best accuracy", "total delay", "total energy (J)")
	for i, sg := range a.Sigmas {
		tb.AddRow(fmt.Sprintf("%.2f", sg),
			metrics.FormatPercent(a.Best[i]),
			metrics.FormatDelay(a.TimeSec[i], true),
			fmt.Sprintf("%.1f", a.EnergyJ[i]))
	}
	return tb
}
