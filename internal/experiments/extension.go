package experiments

import (
	"fmt"

	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
	"helcfl/internal/selection"
)

// LossAwareExtension compares baseline HELCFL against the loss-aware
// variant (Oort-style statistical utility, core.LossAwareScheduler) —
// a future-work direction beyond the paper.
type LossAwareExtension struct {
	Setting Setting
	Lambdas []float64
	// Best[i] and RoundsToTop[i] correspond to Lambdas[i]; index 0 is the
	// λ=0 baseline (exactly the paper's scheduler).
	Best        []float64
	RoundsToTop []int
}

// normalizeLambdas prepends the λ=0 baseline when missing.
func normalizeLambdas(lambdas []float64) []float64 {
	if len(lambdas) == 0 || lambdas[0] != 0 {
		return append([]float64{0}, lambdas...)
	}
	return lambdas
}

// LossAwareCells returns one loss-aware training cell per λ. Callers must
// pass normalized lambdas (see normalizeLambdas) for baseline-first order.
func LossAwareCells(p Preset, s Setting, seed int64, lambdas []float64) []grid.Cell {
	cells := make([]grid.Cell, len(lambdas))
	for i, lambda := range lambdas {
		cells[i] = newCell("lossaware", "HELCFL", fmt.Sprintf("lambda=%g", lambda), p, s, seed, nil,
			func(c cellEnv) (schemeRun, error) {
				planner, err := selection.NewHELCFLLossAware(c.Devices, c.Channel, c.ModelBits, presetParams(p), lambda)
				if err != nil {
					return schemeRun{}, err
				}
				return c.train(planner.Name(), func(cfg *fl.Config) { cfg.Planner = planner })
			})
	}
	return cells
}

// AssembleLossAwareExtension folds LossAwareCells results into the sweep.
func AssembleLossAwareExtension(p Preset, s Setting, lambdas []float64, res []any) (*LossAwareExtension, error) {
	if len(res) != len(lambdas) {
		return nil, fmt.Errorf("experiments: loss-aware sweep got %d results, want %d", len(res), len(lambdas))
	}
	topTarget := p.Targets(s)[len(p.Targets(s))-1]
	out := &LossAwareExtension{Setting: s, Lambdas: lambdas}
	for i := range lambdas {
		r, err := cellResult[schemeRun](res, i)
		if err != nil {
			return nil, err
		}
		rounds := -1
		if n, ok := r.Curve.RoundsToAccuracy(topTarget); ok {
			rounds = n
		}
		out.Best = append(out.Best, r.Curve.Best())
		out.RoundsToTop = append(out.RoundsToTop, rounds)
	}
	return out, nil
}

// Render produces the λ-sweep table.
func (e *LossAwareExtension) Render() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Extension (%s): Oort-style loss-aware utility (λ=0 is the paper's scheduler)", e.Setting),
		"λ", "best accuracy", "rounds to top target")
	for i, l := range e.Lambdas {
		rt := "✗"
		if e.RoundsToTop[i] >= 0 {
			rt = fmt.Sprintf("%d", e.RoundsToTop[i])
		}
		tb.AddRow(fmt.Sprintf("%.1f", l), metrics.FormatPercent(e.Best[i]), rt)
	}
	return tb
}
