package experiments

import (
	"fmt"

	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
	"helcfl/internal/sim"
	"helcfl/internal/stats"
	"helcfl/internal/wireless"
)

// The robustness studies: fault injection, channel drift, deadlines,
// batteries and seeds. Each returns its Plan (see tablePlan).

// dropoutStudy sweeps the per-round upload-failure probability — the
// battery/radio faults motivating the paper's energy optimization — and
// reports how gracefully training degrades.
func dropoutStudy(p Preset, s Setting, seed int64, dropouts []float64) *Plan {
	cells := make([]grid.Cell, len(dropouts))
	for i, d := range dropouts {
		cells[i] = trainCell(p, s, seed, "HELCFL", fmt.Sprintf("dropout=%g", d),
			func(c *fl.Config) { c.DropoutProb = d })
	}
	target := p.Targets(s)[0]
	return tablePlan("upload-failure injection …", cells, func(runs []schemeRun) *report.Table {
		tb := report.NewTable(fmt.Sprintf("Robustness (%s): upload-failure injection", s),
			"dropout", "lost uploads", "best accuracy", "rounds to first target")
		for i, r := range runs {
			failed := 0
			for _, rec := range r.Res.Records {
				failed += rec.Failed
			}
			tb.AddRow(fmt.Sprintf("%.0f%%", dropouts[i]*100),
				fmt.Sprintf("%d", failed),
				metrics.FormatPercent(r.Curve.Best()),
				roundsTo(r.Curve, target))
		}
		return tb
	})
}

// fadingStudy sweeps block-fading severity σ: the scheduler plans on stale
// initialization-phase channel measurements while the realized uplink
// drifts, so round delays diverge from the plan.
func fadingStudy(p Preset, s Setting, seed int64, sigmas []float64) *Plan {
	cells := make([]grid.Cell, len(sigmas))
	for i, sigma := range sigmas {
		cells[i] = trainCell(p, s, seed, "HELCFL", fmt.Sprintf("fading=%g", sigma),
			func(c *fl.Config) {
				if sigma > 0 {
					c.Gains = wireless.NewBlockFading(sigma, seed+7)
				}
			})
	}
	return tablePlan("block-fading channel …", cells, func(runs []schemeRun) *report.Table {
		tb := report.NewTable(fmt.Sprintf("Robustness (%s): block-fading channel", s),
			"σ", "best accuracy", "total delay", "total energy (J)")
		for i, r := range runs {
			tb.AddRow(fmt.Sprintf("%.2f", sigmas[i]),
				metrics.FormatPercent(r.Curve.Best()),
				metrics.FormatDelay(r.Res.TotalTime, true),
				fmt.Sprintf("%.1f", r.Res.TotalEnergy))
		}
		return tb
	})
}

// deadlineStudy instantiates the paper's problem definition directly:
// constraint (14) caps total training delay, and the objective is the best
// accuracy achievable within that budget. Cells follow SchemeOrder; the
// engine schemes train under the deadline, while SL is a plain training
// cell (shared with any plain SL run in a composed campaign) truncated
// post hoc.
func deadlineStudy(p Preset, s Setting, seed int64, budgetSec float64) (*Plan, error) {
	if budgetSec <= 0 {
		return nil, fmt.Errorf("experiments: non-positive budget %g", budgetSec)
	}
	cells := make([]grid.Cell, len(SchemeOrder))
	for i, scheme := range SchemeOrder {
		if scheme == "SL" {
			cells[i] = trainCell(p, s, seed, "SL", "", nil)
			continue
		}
		cells[i] = trainCell(p, s, seed, scheme, fmt.Sprintf("deadline=%g", budgetSec),
			func(c *fl.Config) {
				c.DeadlineSec = budgetSec
				// A generous round cap; the deadline is the binding constraint.
				c.MaxRounds = p.MaxRounds * 10
			})
	}
	return tablePlan("", cells, func(runs []schemeRun) *report.Table {
		tb := report.NewTable(
			fmt.Sprintf("Deadline budget (%s): best accuracy within %.1f min (constraint 14)", s, budgetSec/60),
			"scheme", "rounds completed", "best accuracy")
		for i, r := range runs {
			best, rounds := r.Curve.Best(), 0
			if r.Res != nil {
				rounds = len(r.Res.Records)
			} else { // SL: truncate the unbudgeted trajectory at the deadline
				best = 0
				for _, pt := range r.Curve.Points {
					if pt.Time > budgetSec {
						break
					}
					rounds = pt.Round + 1
					if pt.Accuracy > best {
						best = pt.Accuracy
					}
				}
			}
			tb.AddRow(SchemeOrder[i], fmt.Sprintf("%d", rounds), metrics.FormatPercent(best))
		}
		return tb
	}), nil
}

// batterySchemes are compared in the battery campaign; HELCFL-noDVFS
// isolates Algorithm 3's lifetime contribution.
var batterySchemes = []string{"HELCFL", "HELCFL-noDVFS", "ClassicFL", "FedCS", "FEDL"}

// EstimateSelectedUserRoundEnergy simulates one max-frequency HELCFL round
// on the environment and returns the mean per-selected-user energy — the
// natural unit for battery budgets.
func EstimateSelectedUserRoundEnergy(env *Env) (float64, error) {
	h, err := newPlanner("HELCFL", env)
	if err != nil {
		return 0, err
	}
	devs, _ := plannedCohort(h, env.Devices, 0)
	round := sim.SimulateRound(devs, sim.MaxFrequencies(devs), env.Channel, env.ModelBits, env.Preset.LocalSteps)
	return round.TotalEnergy / float64(len(devs)), nil
}

// batteryRun is one scheme's cell result; CapacityJ and Fleet repeat the
// shared (deterministically re-derived) campaign parameters.
type batteryRun struct {
	CapacityJ float64
	Fleet     int
	Run       schemeRun
}

// BatteryPlan compares the schemes when every device carries a battery
// worth selectionsOfBudget max-frequency selections — the paper's Section
// I motivation. Two effects emerge: DVFS (Algorithm 3) stretches device
// lifetime, and selection policy decides *which* devices die — FedCS burns
// out its fixed fast cohort and halts. Each cell derives the capacity from
// its own environment; the estimate is deterministic in (preset, setting,
// seed), so every cell agrees.
func BatteryPlan(p Preset, s Setting, seed int64, selectionsOfBudget float64) (*Plan, error) {
	if selectionsOfBudget <= 0 {
		return nil, fmt.Errorf("experiments: non-positive battery budget %g", selectionsOfBudget)
	}
	cells := make([]grid.Cell, len(batterySchemes))
	for i, scheme := range batterySchemes {
		cells[i] = newCell("battery", scheme, fmt.Sprintf("sel=%g", selectionsOfBudget), p, s, seed, nil,
			func(c cellEnv) (batteryRun, error) {
				perSel, err := EstimateSelectedUserRoundEnergy(c.Env)
				if err != nil {
					return batteryRun{}, err
				}
				capacity := selectionsOfBudget * perSel
				run, err := c.train(scheme, func(cfg *fl.Config) { cfg.BatteryCapacityJ = capacity })
				return batteryRun{CapacityJ: capacity, Fleet: len(c.Devices), Run: run}, err
			})
	}
	return tablePlan("", cells, func(runs []batteryRun) *report.Table {
		tb := report.NewTable(
			fmt.Sprintf("Battery campaign (%s): %.1f J per device", s, runs[0].CapacityJ),
			"scheme", "rounds done", "devices alive", "halted", "best accuracy")
		for i, r := range runs {
			recs := r.Run.Res.Records
			alive := r.Fleet
			if len(recs) > 0 {
				alive = recs[len(recs)-1].AliveDevices
			}
			halted := "no"
			if r.Run.Res.HaltedByDeadFleet {
				halted = "yes"
			}
			tb.AddRow(batterySchemes[i],
				fmt.Sprintf("%d", len(recs)),
				fmt.Sprintf("%d/%d", alive, r.Fleet),
				halted,
				metrics.FormatPercent(r.Run.Curve.Best()))
		}
		return tb
	}), nil
}

// multiSeedStudy aggregates a Fig. 2 panel across seeds (cells seed-major),
// reporting mean ± std of each scheme's best accuracy and total training
// delay, plus the per-seed win rate of HELCFL over each baseline.
// Single-seed runs are what the paper plots; this is the robustness check
// behind the orderings.
func multiSeedStudy(p Preset, s Setting, seeds []int64) (*Plan, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	var cells []grid.Cell
	for _, seed := range seeds {
		cells = append(cells, Fig2Cells(p, s, seed)...)
	}
	return tablePlan("", cells, func(runs []schemeRun) *report.Table {
		best, timeSec := map[string][]float64{}, map[string][]float64{}
		for i, r := range runs {
			scheme := SchemeOrder[i%len(SchemeOrder)]
			best[scheme] = append(best[scheme], r.Curve.Best())
			timeSec[scheme] = append(timeSec[scheme], r.Curve.Points[len(r.Curve.Points)-1].Time)
		}
		tb := report.NewTable(
			fmt.Sprintf("Multi-seed robustness (%s, %d seeds)", s, len(seeds)),
			"scheme", "best accuracy (mean ± std)", "total delay (mean ± std)", "HELCFL win rate")
		for _, scheme := range SchemeOrder {
			acc := stats.Summarize(best[scheme])
			tt := stats.Summarize(timeSec[scheme])
			win := "—"
			if scheme != "HELCFL" {
				win = fmt.Sprintf("%.0f%%", stats.WinRate(best["HELCFL"], best[scheme], false)*100)
			}
			tb.AddRow(scheme,
				fmt.Sprintf("%.2f%% ± %.2f", acc.Mean*100, acc.Std*100),
				fmt.Sprintf("%.1fmin ± %.1f", tt.Mean/60, tt.Std/60),
				win)
		}
		return tb
	}), nil
}
