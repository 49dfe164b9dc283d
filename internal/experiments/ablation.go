package experiments

import (
	"fmt"
	"math/rand"

	"helcfl/internal/compress"
	"helcfl/internal/core"
	"helcfl/internal/dataset"
	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/nn"
	"helcfl/internal/report"
	"helcfl/internal/stats"
	"helcfl/internal/wireless"
)

// The design studies: each returns its Plan (see tablePlan), and
// ablationPlan (registry.go) composes them.

// roundsTo formats the first round reaching target, or ✗ when unreached.
func roundsTo(c metrics.Curve, target float64) string {
	if n, ok := c.RoundsToAccuracy(target); ok {
		return fmt.Sprintf("%d", n)
	}
	return "✗"
}

// numParams counts the parameters of the environment's model.
func numParams(env *Env) int {
	return env.Spec.Build(rand.New(rand.NewSource(env.Seed + 3))).NumParams()
}

// etaStudy sweeps HELCFL's decay coefficient η and reports best accuracy
// and total training delay per value — the design-choice study for Eq. (20).
func etaStudy(p Preset, s Setting, seed int64, etas []float64) *Plan {
	cells := make([]grid.Cell, len(etas))
	for i, eta := range etas {
		pp := p
		pp.Eta = eta
		cells[i] = trainCell(pp, s, seed, "HELCFL", fmt.Sprintf("eta=%g", eta), nil)
	}
	return tablePlan("η sweep …", cells, func(runs []schemeRun) *report.Table {
		tb := report.NewTable(fmt.Sprintf("Ablation (%s): decay coefficient η", s),
			"η", "best accuracy", "total delay")
		for i, r := range runs {
			tb.AddRow(fmt.Sprintf("%.2f", etas[i]),
				metrics.FormatPercent(r.Curve.Best()),
				metrics.FormatDelay(r.Res.TotalTime, true))
		}
		return tb
	})
}

// fractionStudy sweeps the selection fraction C.
func fractionStudy(p Preset, s Setting, seed int64, fractions []float64) *Plan {
	cells := make([]grid.Cell, len(fractions))
	for i, c := range fractions {
		pp := p
		pp.Fraction = c
		cells[i] = trainCell(pp, s, seed, "HELCFL", fmt.Sprintf("C=%g", c), nil)
	}
	return tablePlan("selection-fraction sweep …", cells, func(runs []schemeRun) *report.Table {
		tb := report.NewTable(fmt.Sprintf("Ablation (%s): selection fraction C", s),
			"C", "best accuracy", "total delay", "total energy (J)")
		for i, r := range runs {
			tb.AddRow(fmt.Sprintf("%.2f", fractions[i]),
				metrics.FormatPercent(r.Curve.Best()),
				metrics.FormatDelay(r.Res.TotalTime, true),
				fmt.Sprintf("%.1f", r.Res.TotalEnergy))
		}
		return tb
	})
}

// clampRun counts how often, and how far, the literal Algorithm 3
// frequencies leave the device range.
type clampRun struct {
	Violations    int
	WorstBelowPct float64 // worst relative undershoot below f_min
	WorstAbovePct float64 // worst relative overshoot above f_max
}

// clampStudy contrasts Algorithm 3 with constraint-(15) clamping against
// the literal pseudocode over replayed HELCFL selections. The replay is
// one indivisible cell, not a sweep.
func clampStudy(p Preset, s Setting, seed int64, rounds int) *Plan {
	cell := newCell("clamp", "HELCFL", fmt.Sprintf("rounds=%d", rounds), p, s, seed, nil,
		func(c cellEnv) (clampRun, error) {
			var out clampRun
			h, err := newPlanner("HELCFL", c.Env)
			if err != nil {
				return out, err
			}
			for j := 0; j < rounds; j++ {
				devs, _ := plannedCohort(h, c.Devices, j)
				raw := core.FrequencyPlan(devs, c.Channel, c.ModelBits, p.LocalSteps, false)
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
		})
	return tablePlan("Algorithm 3 clamping study …", []grid.Cell{cell}, func(r []clampRun) *report.Table {
		tb := report.NewTable("Ablation: literal Algorithm 3 vs constraint (15)",
			"rounds", "range violations", "worst below f_min", "worst above f_max")
		tb.AddRow(fmt.Sprintf("%d", rounds),
			fmt.Sprintf("%d", r[0].Violations),
			fmt.Sprintf("%.1f%%", r[0].WorstBelowPct),
			fmt.Sprintf("%.1f%%", r[0].WorstAbovePct))
		return tb
	})
}

// compressRun is one compressor's cell result.
type compressRun struct {
	Ratio float64
	Run   schemeRun
}

// DefaultCompressors returns the comparison set: fp32 baseline, 10% top-k
// sparsification, and 8-bit uniform quantization.
func DefaultCompressors() []compress.Compressor {
	return []compress.Compressor{
		compress.None{},
		compress.NewTopK(0.1),
		compress.NewUniform(8),
	}
}

// CompressionPlan compares HELCFL against upload-compression variants (the
// paper's Section I rivals): how much wall-clock the smaller C_model buys
// and what it costs in accuracy. Both the cost model (C_model in Eq. 7) and
// the training (lossy reconstructed uploads) see each compressor.
func CompressionPlan(p Preset, s Setting, seed int64, compressors []compress.Compressor) *Plan {
	cells := make([]grid.Cell, len(compressors))
	for i, comp := range compressors {
		// The planner must see the compressed upload size: it changes
		// T_com in utility ranking, FedCS packing, and Algorithm 3 chains.
		compressed := func(env *Env) (*Env, error) {
			cenv := *env
			cenv.ModelBits = comp.BitsFor(numParams(env))
			return &cenv, nil
		}
		cells[i] = newCell("compress", "HELCFL", "compressor="+comp.Name(), p, s, seed, compressed,
			func(c cellEnv) (compressRun, error) {
				run, err := c.train("HELCFL", func(cfg *fl.Config) { cfg.Compressor = comp })
				return compressRun{Ratio: compress.Ratio(comp, numParams(c.Env)), Run: run}, err
			})
	}
	return tablePlan("upload compression vs scheduling …", cells, func(runs []compressRun) *report.Table {
		tb := report.NewTable(fmt.Sprintf("Ablation (%s): upload compression vs scheduling", s),
			"scheme", "ratio", "best accuracy", "total delay", "total energy (J)")
		for i, r := range runs {
			tb.AddRow(compressors[i].Name(),
				fmt.Sprintf("%.1fx", r.Ratio),
				metrics.FormatPercent(r.Run.Curve.Best()),
				metrics.FormatDelay(r.Run.Res.TotalTime, true),
				fmt.Sprintf("%.1f", r.Run.Res.TotalEnergy))
		}
		return tb
	})
}

// modelRun is one architecture's cell result: the serialized size that
// drives C_model, plus the training run.
type modelRun struct {
	Params int
	Bits   float64
	Run    schemeRun
}

// modelStudy trains HELCFL with different model architectures on the same
// data and fleet. Because C_model is derived from the actual serialized
// parameters (Eq. 7), swapping architectures moves upload delay/energy as
// well as accuracy — the coupling this study exposes.
func modelStudy(p Preset, s Setting, seed int64, kinds []string) (*Plan, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("experiments: no model kinds")
	}
	cells := make([]grid.Cell, len(kinds))
	for i, kind := range kinds {
		pp := p
		pp.ModelKind = kind
		cells[i] = newCell("model", "HELCFL", "model="+kind, pp, s, seed, nil, func(c cellEnv) (modelRun, error) {
			model := c.Spec.Build(rand.New(rand.NewSource(seed + 3)))
			run, err := c.train("HELCFL", nil)
			return modelRun{Params: model.NumParams(), Bits: nn.ModelBits(model), Run: run}, err
		})
	}
	return tablePlan("model architecture (C_model coupling) …", cells, func(runs []modelRun) *report.Table {
		tb := report.NewTable(
			fmt.Sprintf("Ablation (%s): model architecture (C_model follows the real parameter bytes)", s),
			"model", "params", "C_model (kbit)", "best accuracy", "total delay")
		for i, r := range runs {
			tb.AddRow(kinds[i],
				fmt.Sprintf("%d", r.Params),
				fmt.Sprintf("%.0f", r.Bits/1e3),
				metrics.FormatPercent(r.Run.Curve.Best()),
				metrics.FormatDelay(r.Run.Res.TotalTime, true))
		}
		return tb
	}), nil
}

// partitionRun is one partition family's cell result: the realized
// per-user label diversity plus the training run.
type partitionRun struct {
	MeanLabels float64
	Run        schemeRun
}

// partitionStudy compares HELCFL under Non-IID partition families: the
// paper's sort-and-shard split, then one Dirichlet(α) split per alpha.
func partitionStudy(p Preset, seed int64, alphas []float64) *Plan {
	cell := func(pp Preset, variant string) grid.Cell {
		return newCell("partition", "HELCFL", variant, pp, NonIID, seed, nil, func(c cellEnv) (partitionRun, error) {
			run, err := c.train("HELCFL", nil)
			return partitionRun{MeanLabels: dataset.MeanDistinctLabels(c.UserData, pp.Classes), Run: run}, err
		})
	}
	labels := []string{fmt.Sprintf("shards (%d/user)", p.ShardsPerUser)}
	cells := []grid.Cell{cell(p, fmt.Sprintf("shards=%d", p.ShardsPerUser))}
	for _, a := range alphas {
		pp := p
		pp.DirichletAlpha = a
		labels = append(labels, fmt.Sprintf("dirichlet α=%.2f", a))
		cells = append(cells, cell(pp, fmt.Sprintf("dirichlet=%g", a)))
	}
	target := p.Targets(NonIID)[0]
	return tablePlan("partition family (shards vs Dirichlet) …", cells, func(runs []partitionRun) *report.Table {
		tb := report.NewTable("Ablation (Non-IID): partition family",
			"partition", "labels/user", "best accuracy", "rounds to first target")
		for i, r := range runs {
			tb.AddRow(labels[i],
				fmt.Sprintf("%.1f", r.MeanLabels),
				metrics.FormatPercent(r.Run.Curve.Best()),
				roundsTo(r.Run.Curve, target))
		}
		return tb
	})
}

// fig3Run is the Fig. 3 comparison — HELCFL with and without Algorithm 3 —
// on the cell's (possibly mutated) environment.
func fig3Run(c cellEnv) (*Fig3Result, error) {
	with, err := c.train("HELCFL", nil)
	if err != nil {
		return nil, err
	}
	without, err := c.train("HELCFL-noDVFS", nil)
	if err != nil {
		return nil, err
	}
	return fig3FromCurves(c.Preset, c.Setting, with.Curve, without.Curve), nil
}

// dvfsLevelsStudy measures how much of Algorithm 3's energy saving
// survives when devices expose only a few discrete DVFS operating points
// (requests snap UP to the next level, preserving the chain deadline but
// burning more energy than the continuous ideal). Level count 0 is the
// continuous ideal; one level is rejected.
func dvfsLevelsStudy(p Preset, s Setting, seed int64, levelCounts []int) (*Plan, error) {
	cells := make([]grid.Cell, len(levelCounts))
	labels := make([]string, len(levelCounts))
	for i, n := range levelCounts {
		if n == 1 {
			return nil, fmt.Errorf("experiments: need ≥2 DVFS levels, got %d", n)
		}
		labels[i] = "continuous"
		var step func(*Env) (*Env, error)
		if n > 0 {
			labels[i] = fmt.Sprintf("%d levels", n)
			// A private rebuild, not the shared cached env: UniformLevels
			// rewrites each device's frequency range.
			step = func(*Env) (*Env, error) {
				env, err := BuildEnv(p, s, seed)
				if err != nil {
					return nil, err
				}
				for _, d := range env.Devices {
					d.UniformLevels(n)
				}
				return env, nil
			}
		}
		cells[i] = newCell("dvfslevels", "HELCFL", fmt.Sprintf("levels=%d", n), p, s, seed, step, fig3Run)
	}
	return tablePlan("discrete DVFS levels …", cells, func(runs []*Fig3Result) *report.Table {
		tb := report.NewTable(
			fmt.Sprintf("Ablation (%s): discrete DVFS levels vs Algorithm 3 savings", s),
			"operating points", "energy reduction at first target")
		for i, f3 := range runs {
			v := "✗"
			if len(f3.Targets) > 0 && f3.Reached[0] {
				v = fmt.Sprintf("%.1f%%", f3.ReductionPct[0])
			}
			tb.AddRow(labels[i], v)
		}
		return tb
	}), nil
}

// rbRun summarizes the per-round makespans for each sub-channel count.
type rbRun struct {
	Makespan []stats.Summary
}

// rbStudy contrasts the two readings of the paper's "available Z RBs": one
// full-rate TDMA channel (the base system's Fig. 1 discipline, k = 1)
// versus splitting Z into k equal sub-channels used in parallel, where
// each upload runs k× longer but k proceed at once. It replays HELCFL's
// selected cohorts at maximum frequency and measures the round makespan
// under each interpretation — one cell, since every k shares the replay.
func rbStudy(p Preset, seed int64, rounds int, ks []int) (*Plan, error) {
	if rounds <= 0 || len(ks) == 0 {
		return nil, fmt.Errorf("experiments: RB ablation needs rounds and channel counts")
	}
	cell := newCell("rb", "HELCFL", fmt.Sprintf("rounds=%d,ks=%v", rounds, ks), p, IID, seed, nil,
		func(c cellEnv) (rbRun, error) {
			var out rbRun
			h, err := newPlanner("HELCFL", c.Env)
			if err != nil {
				return out, err
			}
			perK := make([][]float64, len(ks))
			for j := 0; j < rounds; j++ {
				sel, _ := h.PlanRound(j)
				baseReqs := make([]wireless.UploadRequest, len(sel))
				for i, q := range sel {
					d := c.Devices[q]
					baseReqs[i] = wireless.UploadRequest{
						User:        q,
						ComputeDone: float64(p.LocalSteps) * d.ComputeDelayAtMax(),
						Duration:    c.Channel.UploadDelay(c.ModelBits, d.TxPower, d.ChannelGain),
					}
				}
				for ki, k := range ks {
					var mk float64
					if k == 1 {
						_, mk = wireless.ScheduleTDMA(baseReqs)
					} else {
						scaled := make([]wireless.UploadRequest, len(baseReqs))
						for i, r := range baseReqs {
							scaled[i] = wireless.UploadRequest{User: r.User, ComputeDone: r.ComputeDone, Duration: r.Duration * float64(k)}
						}
						_, mk = wireless.ScheduleParallel(scaled, k)
					}
					perK[ki] = append(perK[ki], mk)
				}
			}
			for _, ms := range perK {
				out.Makespan = append(out.Makespan, stats.Summarize(ms))
			}
			return out, nil
		})
	return tablePlan("RB interpretation (serial vs parallel sub-channels) …", []grid.Cell{cell}, func(r []rbRun) *report.Table {
		tb := report.NewTable(
			fmt.Sprintf("Ablation: RB interpretation — serial TDMA vs k parallel sub-channels (%d rounds)", rounds),
			"sub-channels", "round makespan (mean ± std)")
		for i, k := range ks {
			label := fmt.Sprintf("%d (parallel)", k)
			if k == 1 {
				label = "1 (serial TDMA)"
			}
			tb.AddRow(label, fmt.Sprintf("%.2fs ± %.2f", r[0].Makespan[i].Mean, r[0].Makespan[i].Std))
		}
		return tb
	}), nil
}

// fairnessSchemes are the selection policies the fairness study replays.
var fairnessSchemes = []string{"HELCFL", "ClassicFL", "FedCS"}

// fairnessRun is one scheme's replay outcome: Jain's index over per-user
// selection counts, and the fraction of users ever selected.
type fairnessRun struct {
	Jain     float64
	Coverage float64
}

// fairnessStudy quantifies how evenly each selection policy spreads
// participation across the fleet over rounds replayed selections (no
// training). Even spread matters twice — Eq. 19 (all data enters training)
// and battery lifetime (drain is proportional to participation).
func fairnessStudy(p Preset, seed int64, rounds int) (*Plan, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("experiments: non-positive rounds %d", rounds)
	}
	cells := make([]grid.Cell, len(fairnessSchemes))
	for i, scheme := range fairnessSchemes {
		cells[i] = newCell("fairness", scheme, fmt.Sprintf("rounds=%d", rounds), p, IID, seed, nil,
			func(c cellEnv) (fairnessRun, error) {
				planner, err := newPlanner(scheme, c.Env)
				if err != nil {
					return fairnessRun{}, err
				}
				counts := make([]float64, len(c.Devices))
				for j := 0; j < rounds; j++ {
					sel, _ := planner.PlanRound(j)
					for _, q := range sel {
						counts[q]++
					}
				}
				covered := 0
				for _, n := range counts {
					if n > 0 {
						covered++
					}
				}
				return fairnessRun{
					Jain:     stats.JainIndex(counts),
					Coverage: float64(covered) / float64(len(c.Devices)),
				}, nil
			})
	}
	return tablePlan("selection fairness …", cells, func(runs []fairnessRun) *report.Table {
		tb := report.NewTable(
			fmt.Sprintf("Selection fairness over %d rounds (Jain index; 1 = uniform)", rounds),
			"scheme", "Jain index", "fleet coverage")
		for i, r := range runs {
			tb.AddRow(fairnessSchemes[i],
				fmt.Sprintf("%.3f", r.Jain),
				fmt.Sprintf("%.0f%%", r.Coverage*100))
		}
		return tb
	}), nil
}
