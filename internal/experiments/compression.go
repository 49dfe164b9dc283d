package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/compress"
	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
)

// CompressionAblation compares HELCFL against upload-compression variants
// (the paper's Section I rivals): how much wall-clock the smaller C_model
// buys and what it costs in accuracy.
type CompressionAblation struct {
	Setting Setting
	// Names, Ratios, Best, TimeSec, EnergyJ align 1:1 per variant.
	Names   []string
	Ratios  []float64
	Best    []float64
	TimeSec []float64
	EnergyJ []float64
}

// compressRun is one compressor's cell result.
type compressRun struct {
	Name  string
	Ratio float64
	Run   schemeRun
}

// CompressionCells returns one HELCFL training cell per compressor. Both
// the cost model (C_model in Eq. 7) and the training (lossy reconstructed
// uploads) see the compression.
func CompressionCells(p Preset, s Setting, seed int64, compressors []compress.Compressor) []grid.Cell {
	cells := make([]grid.Cell, 0, len(compressors))
	for _, comp := range compressors {
		c := comp
		cells = append(cells, grid.Cell{
			Experiment: "compress",
			Preset:     p.Name,
			Setting:    string(s),
			Scheme:     "HELCFL",
			Variant:    "compressor=" + c.Name(),
			Seed:       seed,
			Run: func(context.Context, *rand.Rand) (any, error) {
				env, err := CachedEnv(p, s, seed)
				if err != nil {
					return nil, err
				}
				numParams := env.Spec.Build(rand.New(rand.NewSource(seed + 3))).NumParams()
				// The planner must see the compressed upload size: it changes
				// T_com in utility ranking, FedCS packing, and Algorithm 3 chains.
				cenv := *env
				cenv.ModelBits = c.BitsFor(numParams)
				planner, err := newPlanner("HELCFL", &cenv, seed)
				if err != nil {
					return nil, err
				}
				res, err := fl.Run(fl.Config{
					Spec:       cenv.Spec,
					Devices:    cenv.Devices,
					Channel:    cenv.Channel,
					UserData:   cenv.UserData,
					Test:       cenv.Synth.Test,
					Planner:    planner,
					LR:         p.LR,
					LocalSteps: p.LocalSteps,
					MaxRounds:  p.MaxRounds,
					EvalEvery:  p.EvalEvery,
					Compressor: c,
					Seed:       seed + 100,
					Sink:       p.Sink,
				})
				if err != nil {
					return nil, err
				}
				return compressRun{
					Name:  c.Name(),
					Ratio: compress.Ratio(c, numParams),
					Run:   schemeRun{Curve: metrics.CurveFromRecords(c.Name(), res.Records), Res: res},
				}, nil
			},
		})
	}
	return cells
}

// AssembleCompressionAblation folds CompressionCells results into the study.
func AssembleCompressionAblation(s Setting, compressors []compress.Compressor, res []any) (*CompressionAblation, error) {
	if len(res) != len(compressors) {
		return nil, fmt.Errorf("experiments: compression study got %d results, want %d", len(res), len(compressors))
	}
	out := &CompressionAblation{Setting: s}
	for i := range compressors {
		r, err := cellResult[compressRun](res, i)
		if err != nil {
			return nil, err
		}
		out.Names = append(out.Names, r.Name)
		out.Ratios = append(out.Ratios, r.Ratio)
		out.Best = append(out.Best, r.Run.Curve.Best())
		out.TimeSec = append(out.TimeSec, r.Run.Res.TotalTime)
		out.EnergyJ = append(out.EnergyJ, r.Run.Res.TotalEnergy)
	}
	return out, nil
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

// Render produces the comparison table.
func (a *CompressionAblation) Render() *report.Table {
	tb := report.NewTable(fmt.Sprintf("Ablation (%s): upload compression vs scheduling", a.Setting),
		"scheme", "ratio", "best accuracy", "total delay", "total energy (J)")
	for i, name := range a.Names {
		tb.AddRow(name,
			fmt.Sprintf("%.1fx", a.Ratios[i]),
			metrics.FormatPercent(a.Best[i]),
			metrics.FormatDelay(a.TimeSec[i], true),
			fmt.Sprintf("%.1f", a.EnergyJ[i]))
	}
	return tb
}
