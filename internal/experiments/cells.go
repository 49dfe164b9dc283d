package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/obs/span"
)

// This file is the bridge between the experiment drivers and the campaign
// grid (internal/grid): every driver expresses its study as cells — built
// by a *Cells function — and folds the runner's results back into its
// result type with an Assemble* function. There is no other way to execute
// a study: the registry (registry.go) composes the cells into Plans, and a
// library caller runs the same cells on a grid.Runner and assembles them.

// schemeRun is the result of one standard training cell: the evaluated
// curve plus the engine result the assemblers mine for totals. SL runs
// carry a nil Res (the separated-learning engine has its own result type;
// only the curve is comparable).
type schemeRun struct {
	Curve metrics.Curve
	Res   *fl.Result
}

// cellResult extracts a typed cell result, reporting authoring bugs (an
// assembler paired with the wrong cells) as errors rather than panics.
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

// trainCell is the workhorse cell: build the (preset, setting, seed)
// environment, train one scheme, return a schemeRun. variant must name any
// config mutation beyond the preset defaults (grid keys treat equal-key
// cells as interchangeable); mutate may be nil. The "SL" scheme routes to
// the separated-learning engine and ignores mutate.
func trainCell(p Preset, s Setting, seed int64, scheme, variant string, mutate func(*fl.Config)) grid.Cell {
	return grid.Cell{
		Experiment: "train",
		Preset:     p.Name,
		Setting:    string(s),
		Scheme:     scheme,
		Variant:    variant,
		Seed:       seed,
		Run: func(ctx context.Context, _ *rand.Rand) (any, error) {
			// The env-build vs run split is the cell-level cost attribution
			// ROADMAP item 3 needs: every cell rebuilds its environment from
			// the seed (that is what keeps parallel runs bit-identical), and
			// these two spans say what that independence costs.
			_, envSp := span.StartCtx(ctx, "cell.envbuild")
			env, err := CachedEnv(p, s, seed)
			envSp.End()
			if err != nil {
				return nil, err
			}
			runCtx, runSp := span.StartCtx(ctx, "cell.run")
			defer runSp.End()
			if scheme == "SL" {
				curve, err := runSL(env)
				if err != nil {
					return nil, err
				}
				return schemeRun{Curve: curve}, nil
			}
			// Thread the trace into the engine config so round phases nest
			// under this cell.
			traced := mutate
			if rec, parent := span.FromContext(runCtx); rec != nil {
				traced = func(c *fl.Config) {
					c.Trace = rec
					c.TraceParent = parent
					if mutate != nil {
						mutate(c)
					}
				}
			}
			curve, res, err := RunSchemeWith(env, scheme, traced)
			if err != nil {
				return nil, err
			}
			return schemeRun{Curve: curve, Res: res}, nil
		},
	}
}
