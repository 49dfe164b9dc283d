package experiments

import (
	"fmt"

	"helcfl/internal/grid"
	"helcfl/internal/report"
	"helcfl/internal/stats"
)

// MultiSeed aggregates a Fig. 2 campaign across several seeds, reporting
// mean ± std of each scheme's best accuracy and total training delay, plus
// the per-seed win rate of HELCFL over each baseline. Single-seed runs are
// what the paper plots; this is the robustness check behind the orderings.
type MultiSeed struct {
	Setting Setting
	Seeds   []int64
	// Best and TimeSec map scheme → per-seed observations, seed order.
	Best, TimeSec map[string][]float64
}

// MultiSeedCells returns a full Fig. 2 panel of cells per seed, seed-major
// order (AssembleMultiSeed relies on the layout).
func MultiSeedCells(p Preset, s Setting, seeds []int64) []grid.Cell {
	cells := make([]grid.Cell, 0, len(seeds)*len(SchemeOrder))
	for _, seed := range seeds {
		cells = append(cells, Fig2Cells(p, s, seed)...)
	}
	return cells
}

// AssembleMultiSeed folds MultiSeedCells results into the aggregate.
func AssembleMultiSeed(s Setting, seeds []int64, res []any) (*MultiSeed, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	if len(res) != len(seeds)*len(SchemeOrder) {
		return nil, fmt.Errorf("experiments: multiseed got %d results, want %d", len(res), len(seeds)*len(SchemeOrder))
	}
	out := &MultiSeed{
		Setting: s,
		Seeds:   seeds,
		Best:    map[string][]float64{},
		TimeSec: map[string][]float64{},
	}
	for si := range seeds {
		for j, scheme := range SchemeOrder {
			r, err := cellResult[schemeRun](res, si*len(SchemeOrder)+j)
			if err != nil {
				return nil, err
			}
			out.Best[scheme] = append(out.Best[scheme], r.Curve.Best())
			last := r.Curve.Points[len(r.Curve.Points)-1]
			out.TimeSec[scheme] = append(out.TimeSec[scheme], last.Time)
		}
	}
	return out, nil
}

// AccuracySummary returns the best-accuracy summary for a scheme.
func (m *MultiSeed) AccuracySummary(scheme string) stats.Summary {
	return stats.Summarize(m.Best[scheme])
}

// WinRateOverBaseline returns the fraction of seeds where HELCFL's best
// accuracy beats the baseline's.
func (m *MultiSeed) WinRateOverBaseline(baseline string) float64 {
	return stats.WinRate(m.Best["HELCFL"], m.Best[baseline], false)
}

// Render produces the robustness table.
func (m *MultiSeed) Render() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Multi-seed robustness (%s, %d seeds)", m.Setting, len(m.Seeds)),
		"scheme", "best accuracy (mean ± std)", "total delay (mean ± std)", "HELCFL win rate")
	for _, scheme := range SchemeOrder {
		acc := stats.Summarize(m.Best[scheme])
		tt := stats.Summarize(m.TimeSec[scheme])
		win := "—"
		if scheme != "HELCFL" {
			win = fmt.Sprintf("%.0f%%", m.WinRateOverBaseline(scheme)*100)
		}
		tb.AddRow(scheme,
			fmt.Sprintf("%.2f%% ± %.2f", acc.Mean*100, acc.Std*100),
			fmt.Sprintf("%.1fmin ± %.1f", tt.Mean/60, tt.Std/60),
			win)
	}
	return tb
}
