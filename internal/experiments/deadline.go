package experiments

import (
	"fmt"

	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
)

// DeadlineBudget instantiates the paper's problem definition directly:
// constraint (14) caps total training delay, and the objective is the best
// accuracy achievable within that budget. Every scheme trains under the
// same wall-clock deadline.
type DeadlineBudget struct {
	Setting Setting
	// BudgetSec is the shared training deadline.
	BudgetSec float64
	// Best[scheme] is the best accuracy reached before the deadline;
	// Rounds[scheme] counts completed rounds.
	Best   map[string]float64
	Rounds map[string]int
}

// deadlineSchemes are the engine-budgeted schemes; SL rides as a plain
// training cell and is truncated post hoc.
var deadlineSchemes = []string{"HELCFL", "ClassicFL", "FedCS", "FEDL"}

// DeadlineCells returns the four engine-budgeted schemes followed by the
// unbudgeted SL baseline. The SL cell is the same key as a plain SL run, so
// composed campaigns share its execution.
func DeadlineCells(p Preset, s Setting, seed int64, budgetSec float64) ([]grid.Cell, error) {
	if budgetSec <= 0 {
		return nil, fmt.Errorf("experiments: non-positive budget %g", budgetSec)
	}
	cells := make([]grid.Cell, 0, len(deadlineSchemes)+1)
	for _, scheme := range deadlineSchemes {
		cells = append(cells, trainCell(p, s, seed, scheme, fmt.Sprintf("deadline=%g", budgetSec),
			func(c *fl.Config) {
				c.DeadlineSec = budgetSec
				// A generous round cap; the deadline is the binding constraint.
				c.MaxRounds = p.MaxRounds * 10
			}))
	}
	cells = append(cells, trainCell(p, s, seed, "SL", "", nil))
	return cells, nil
}

// AssembleDeadlineBudget folds DeadlineCells results into the comparison,
// truncating SL's trajectory at the budget.
func AssembleDeadlineBudget(s Setting, budgetSec float64, res []any) (*DeadlineBudget, error) {
	if len(res) != len(deadlineSchemes)+1 {
		return nil, fmt.Errorf("experiments: deadline budget got %d results, want %d", len(res), len(deadlineSchemes)+1)
	}
	out := &DeadlineBudget{
		Setting:   s,
		BudgetSec: budgetSec,
		Best:      map[string]float64{},
		Rounds:    map[string]int{},
	}
	for i, scheme := range deadlineSchemes {
		r, err := cellResult[schemeRun](res, i)
		if err != nil {
			return nil, err
		}
		out.Best[scheme] = r.Curve.Best()
		out.Rounds[scheme] = len(r.Res.Records)
	}
	sl, err := cellResult[schemeRun](res, len(deadlineSchemes))
	if err != nil {
		return nil, err
	}
	best := 0.0
	rounds := 0
	for _, pt := range sl.Curve.Points {
		if pt.Time > budgetSec {
			break
		}
		rounds = pt.Round + 1
		if pt.Accuracy > best {
			best = pt.Accuracy
		}
	}
	out.Best["SL"] = best
	out.Rounds["SL"] = rounds
	return out, nil
}

// Render produces the budget-comparison table.
func (d *DeadlineBudget) Render() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Deadline budget (%s): best accuracy within %.1f min (constraint 14)",
			d.Setting, d.BudgetSec/60),
		"scheme", "rounds completed", "best accuracy")
	for _, scheme := range SchemeOrder {
		tb.AddRow(scheme,
			fmt.Sprintf("%d", d.Rounds[scheme]),
			metrics.FormatPercent(d.Best[scheme]))
	}
	return tb
}
