package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/nn"
	"helcfl/internal/report"
)

// ModelAblation trains HELCFL with different model architectures on the
// same data and fleet. Because C_model is derived from the actual
// serialized parameters (Eq. 7), swapping architectures moves upload
// delay/energy as well as accuracy — the coupling this study exposes.
type ModelAblation struct {
	Setting Setting
	Kinds   []string
	// Params, Bits, Best, TimeSec align 1:1 with Kinds.
	Params  []int
	Bits    []float64
	Best    []float64
	TimeSec []float64
}

// modelRun is one architecture's cell result: the trained curve plus the
// serialized size that drives C_model.
type modelRun struct {
	Params int
	Bits   float64
	Run    schemeRun
}

// ModelCells returns one HELCFL training cell per architecture kind.
func ModelCells(p Preset, s Setting, seed int64, kinds []string) ([]grid.Cell, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("experiments: no model kinds")
	}
	cells := make([]grid.Cell, 0, len(kinds))
	for _, k := range kinds {
		kind := k
		pp := p
		pp.ModelKind = kind
		cells = append(cells, grid.Cell{
			Experiment: "model",
			Preset:     p.Name,
			Setting:    string(s),
			Scheme:     "HELCFL",
			Variant:    "model=" + kind,
			Seed:       seed,
			Run: func(context.Context, *rand.Rand) (any, error) {
				env, err := CachedEnv(pp, s, seed)
				if err != nil {
					return nil, err
				}
				model := env.Spec.Build(rand.New(rand.NewSource(seed + 3)))
				curve, res, err := RunScheme(env, "HELCFL")
				if err != nil {
					return nil, err
				}
				return modelRun{
					Params: model.NumParams(),
					Bits:   nn.ModelBits(model),
					Run:    schemeRun{Curve: curve, Res: res},
				}, nil
			},
		})
	}
	return cells, nil
}

// AssembleModelAblation folds ModelCells results into the study.
func AssembleModelAblation(s Setting, kinds []string, res []any) (*ModelAblation, error) {
	if len(res) != len(kinds) {
		return nil, fmt.Errorf("experiments: model study got %d results, want %d", len(res), len(kinds))
	}
	out := &ModelAblation{Setting: s, Kinds: kinds}
	for i := range kinds {
		r, err := cellResult[modelRun](res, i)
		if err != nil {
			return nil, err
		}
		out.Params = append(out.Params, r.Params)
		out.Bits = append(out.Bits, r.Bits)
		out.Best = append(out.Best, r.Run.Curve.Best())
		out.TimeSec = append(out.TimeSec, r.Run.Res.TotalTime)
	}
	return out, nil
}

// Render produces the architecture-comparison table.
func (a *ModelAblation) Render() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Ablation (%s): model architecture (C_model follows the real parameter bytes)", a.Setting),
		"model", "params", "C_model (kbit)", "best accuracy", "total delay")
	for i, kind := range a.Kinds {
		tb.AddRow(kind,
			fmt.Sprintf("%d", a.Params[i]),
			fmt.Sprintf("%.0f", a.Bits[i]/1e3),
			metrics.FormatPercent(a.Best[i]),
			metrics.FormatDelay(a.TimeSec[i], true))
	}
	return tb
}
