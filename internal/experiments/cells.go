package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/obs/span"
	"helcfl/internal/report"
)

// This file is the bridge between the experiment drivers and the campaign
// grid (internal/grid). Every cell, training or not, comes from newCell,
// which builds the cell's environment under a "cell.envbuild" span and runs
// its body under "cell.run", so every second of a grid cell is attributed.
// Every table study is a tablePlan: its cells plus one function from their
// typed results to the table. The registry (registry.go) composes the plans;
// there is no other way to execute a study.

// schemeRun is the result of one standard training cell: the evaluated
// curve plus the engine result the tables mine for totals. SL runs carry a
// nil Res (the separated-learning engine has its own result type; only the
// curve is comparable).
type schemeRun struct {
	Curve metrics.Curve
	Res   *fl.Result
}

// cellResult extracts a typed cell result, reporting authoring bugs (a fold
// paired with the wrong cells) as errors rather than panics.
func cellResult[T any](res []any, i int) (T, error) {
	var zero T
	if i < 0 || i >= len(res) {
		return zero, fmt.Errorf("experiments: cell result %d out of range (%d results)", i, len(res))
	}
	v, ok := res[i].(T)
	if !ok {
		return zero, fmt.Errorf("experiments: cell result %d is %T, want %T", i, res[i], zero)
	}
	return v, nil
}

// cellEnv is what a cell body runs against: the cell's environment and the
// trace position of its "cell.run" span.
type cellEnv struct {
	*Env
	trace  *span.Recorder
	parent span.Ref
}

// train runs one scheme on the cell's environment with the engine's spans
// nested under the cell. mutate (nil for none) is applied after the preset
// defaults; "SL" routes to the separated-learning engine and ignores it.
func (c cellEnv) train(scheme string, mutate func(*fl.Config)) (schemeRun, error) {
	if scheme == "SL" {
		curve, err := runSL(c.Env)
		return schemeRun{Curve: curve}, err
	}
	curve, res, err := RunSchemeWith(c.Env, scheme, func(cfg *fl.Config) {
		cfg.Trace, cfg.TraceParent = c.trace, c.parent
		if mutate != nil {
			mutate(cfg)
		}
	})
	return schemeRun{Curve: curve, Res: res}, err
}

// newCell is the one cell constructor. The cell's environment is the cached
// (preset, setting, seed) one, passed through step when step is non-nil (a
// private variant: compression's ModelBits, dvfslevels' rebuilt fleet);
// body computes the result from it. The key fields name the computation
// (grid keys treat equal-key cells as interchangeable), so variant must
// name anything body or step changes beyond the preset defaults.
func newCell[T any](experiment, scheme, variant string, p Preset, s Setting, seed int64,
	step func(*Env) (*Env, error), body func(cellEnv) (T, error)) grid.Cell {
	return grid.Cell{
		Experiment: experiment,
		Preset:     p.Name,
		Setting:    string(s),
		Scheme:     scheme,
		Variant:    variant,
		Seed:       seed,
		Run: func(ctx context.Context, _ *rand.Rand) (any, error) {
			// Every cell rebuilds (or reuses the cache of) its environment
			// from the seed — that is what keeps parallel runs bit-identical
			// — and these two spans say what that independence costs.
			_, envSp := span.StartCtx(ctx, "cell.envbuild")
			env, err := CachedEnv(p, s, seed)
			if err == nil && step != nil {
				env, err = step(env)
			}
			envSp.End()
			if err != nil {
				return nil, err
			}
			runCtx, runSp := span.StartCtx(ctx, "cell.run")
			defer runSp.End()
			rec, parent := span.FromContext(runCtx)
			// The cache key leaves out the Sink, so a cached Env carries
			// whichever sink its first builder had: use this preset's.
			own := *env
			own.Preset.Sink = p.Sink
			return body(cellEnv{Env: &own, trace: rec, parent: parent})
		},
	}
}

// trainCell is the workhorse cell: train one scheme on the (preset,
// setting, seed) environment. variant must name any config mutation beyond
// the preset defaults; mutate may be nil.
func trainCell(p Preset, s Setting, seed int64, scheme, variant string, mutate func(*fl.Config)) grid.Cell {
	return newCell("train", scheme, variant, p, s, seed, nil, func(c cellEnv) (schemeRun, error) {
		return c.train(scheme, mutate)
	})
}

// tablePlan is the one shape of a table study: its cells, the section
// header printed above the table ("" for none), and the function from the
// cells' typed results, in cell order, to the table.
func tablePlan[T any](header string, cells []grid.Cell, table func(res []T) *report.Table) *Plan {
	return sectionPlan(header, cells, func(res []any) (fmt.Stringer, error) {
		typed := make([]T, len(res))
		for i := range res {
			r, err := cellResult[T](res, i)
			if err != nil {
				return nil, err
			}
			typed[i] = r
		}
		return table(typed), nil
	})
}
