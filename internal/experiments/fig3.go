package experiments

import (
	"fmt"

	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
)

// Fig3Result reproduces Fig. 3: training energy to reach each desired
// accuracy with and without the DVFS frequency determination (Algorithm 3),
// and the percentage reduction it brings.
type Fig3Result struct {
	Setting Setting
	Targets []float64
	// WithDVFS and WithoutDVFS are joules to reach each target.
	WithDVFS, WithoutDVFS []float64
	// Reached marks targets both variants achieved.
	Reached []bool
	// ReductionPct is the energy saving percentage per target.
	ReductionPct []float64
}

// fig3Schemes are the two variants Fig. 3 compares; the second pins every
// selected device to its maximum frequency.
var fig3Schemes = []string{"HELCFL", "HELCFL-noDVFS"}

// Fig3Cells returns one Fig. 3 comparison as cells: HELCFL with and
// without Algorithm 3, on the same environment geometry. Selection is
// deterministic (greedy-decay has no randomness), so both cells see
// identical selection sequences and accuracy curves; only energy differs.
func Fig3Cells(p Preset, s Setting, seed int64) []grid.Cell {
	cells := make([]grid.Cell, 0, len(fig3Schemes))
	for _, scheme := range fig3Schemes {
		cells = append(cells, trainCell(p, s, seed, scheme, "", nil))
	}
	return cells
}

// AssembleFig3 folds Fig3Cells results into the energy comparison.
func AssembleFig3(p Preset, s Setting, res []any) (*Fig3Result, error) {
	if len(res) != len(fig3Schemes) {
		return nil, fmt.Errorf("experiments: fig3 got %d results, want %d", len(res), len(fig3Schemes))
	}
	with, err := cellResult[schemeRun](res, 0)
	if err != nil {
		return nil, err
	}
	without, err := cellResult[schemeRun](res, 1)
	if err != nil {
		return nil, err
	}
	return fig3FromCurves(p, s, with.Curve, without.Curve), nil
}

// fig3FromCurves derives the Fig. 3 comparison from the two trajectories.
func fig3FromCurves(p Preset, s Setting, withCurve, withoutCurve metrics.Curve) *Fig3Result {
	targets := p.Targets(s)
	out := &Fig3Result{
		Setting:      s,
		Targets:      targets,
		WithDVFS:     make([]float64, len(targets)),
		WithoutDVFS:  make([]float64, len(targets)),
		Reached:      make([]bool, len(targets)),
		ReductionPct: make([]float64, len(targets)),
	}
	for i, target := range targets {
		ew, okW := withCurve.EnergyToAccuracy(target)
		eo, okO := withoutCurve.EnergyToAccuracy(target)
		out.WithDVFS[i], out.WithoutDVFS[i] = ew, eo
		out.Reached[i] = okW && okO
		if out.Reached[i] && eo > 0 {
			out.ReductionPct[i] = (1 - ew/eo) * 100
		}
	}
	return out
}

// Render produces the Fig. 3 bar chart and companion table.
func (f *Fig3Result) Render() (*report.BarChart, *report.Table) {
	bc := report.NewBarChart(fmt.Sprintf("Fig. 3 (%s): training energy to desired accuracy", f.Setting), " J")
	tb := report.NewTable(fmt.Sprintf("Fig. 3 (%s): DVFS energy reduction", f.Setting),
		"target", "with DVFS (J)", "without DVFS (J)", "reduction")
	for i, t := range f.Targets {
		label := metrics.FormatPercent(t)
		if !f.Reached[i] {
			tb.AddRow(label, "✗", "✗", "—")
			continue
		}
		bc.Add(label+" with DVFS", f.WithDVFS[i])
		bc.Add(label+" w/o DVFS", f.WithoutDVFS[i])
		tb.AddRow(label,
			fmt.Sprintf("%.2f", f.WithDVFS[i]),
			fmt.Sprintf("%.2f", f.WithoutDVFS[i]),
			fmt.Sprintf("%.2f%%", f.ReductionPct[i]))
	}
	return bc, tb
}
