package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/grid"
	"helcfl/internal/report"
)

// DVFSLevelsAblation measures how much of Algorithm 3's energy saving
// survives when devices expose only a few discrete DVFS operating points
// (requests snap UP to the next level, preserving the chain deadline but
// burning more energy than the continuous ideal).
type DVFSLevelsAblation struct {
	Setting Setting
	// Labels names each variant ("continuous", "8 levels", …).
	Labels []string
	// ReductionPct is the Fig. 3 energy reduction at the setting's first
	// target for each variant; Reached marks measurable entries.
	ReductionPct []float64
	Reached      []bool
}

// dvfsLevelLabel names one variant (0 = continuous).
func dvfsLevelLabel(n int) string {
	if n > 0 {
		return fmt.Sprintf("%d levels", n)
	}
	return "continuous"
}

// DVFSLevelsCells returns one Fig. 3 comparison cell per level count
// (0 = continuous); the level mutation applies to the cell's own
// environment rebuild. Rejects level counts of 1.
func DVFSLevelsCells(p Preset, s Setting, seed int64, levelCounts []int) ([]grid.Cell, error) {
	cells := make([]grid.Cell, 0, len(levelCounts))
	for _, n := range levelCounts {
		if n > 0 && n < 2 {
			return nil, fmt.Errorf("experiments: need ≥2 DVFS levels, got %d", n)
		}
		levels := n
		cells = append(cells, grid.Cell{
			Experiment: "dvfslevels",
			Preset:     p.Name,
			Setting:    string(s),
			Scheme:     "HELCFL",
			Variant:    fmt.Sprintf("levels=%d", n),
			Seed:       seed,
			Run: func(context.Context, *rand.Rand) (any, error) {
				// Deliberately NOT CachedEnv: this cell mutates the fleet
				// (UniformLevels rewrites each device's frequency range), so
				// it needs a private environment.
				env, err := BuildEnv(p, s, seed)
				if err != nil {
					return nil, err
				}
				if levels > 0 {
					for _, d := range env.Devices {
						d.UniformLevels(levels)
					}
				}
				return RunFig3Env(env)
			},
		})
	}
	return cells, nil
}

// AssembleDVFSLevelsAblation folds DVFSLevelsCells results into the sweep.
func AssembleDVFSLevelsAblation(s Setting, levelCounts []int, res []any) (*DVFSLevelsAblation, error) {
	if len(res) != len(levelCounts) {
		return nil, fmt.Errorf("experiments: DVFS-levels sweep got %d results, want %d", len(res), len(levelCounts))
	}
	out := &DVFSLevelsAblation{Setting: s}
	for i, n := range levelCounts {
		f3, err := cellResult[*Fig3Result](res, i)
		if err != nil {
			return nil, err
		}
		out.Labels = append(out.Labels, dvfsLevelLabel(n))
		if len(f3.Targets) > 0 && f3.Reached[0] {
			out.ReductionPct = append(out.ReductionPct, f3.ReductionPct[0])
			out.Reached = append(out.Reached, true)
		} else {
			out.ReductionPct = append(out.ReductionPct, 0)
			out.Reached = append(out.Reached, false)
		}
	}
	return out, nil
}

// Render produces the level-count table.
func (a *DVFSLevelsAblation) Render() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Ablation (%s): discrete DVFS levels vs Algorithm 3 savings", a.Setting),
		"operating points", "energy reduction at first target")
	for i, l := range a.Labels {
		v := "✗"
		if a.Reached[i] {
			v = fmt.Sprintf("%.1f%%", a.ReductionPct[i])
		}
		tb.AddRow(l, v)
	}
	return tb
}
