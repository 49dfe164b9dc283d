package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/grid"
	"helcfl/internal/report"
	"helcfl/internal/stats"
)

// FairnessStudy quantifies how evenly each selection policy spreads
// participation across the fleet: Jain's fairness index over per-user
// selection counts, and fleet coverage. Even spread matters twice — Eq. 19
// (all data enters training) and battery lifetime (drain is proportional
// to participation).
type FairnessStudy struct {
	Rounds   int
	Schemes  []string
	Jain     []float64
	Coverage []float64 // fraction of users ever selected
}

// fairnessSchemes are the selection policies the study replays.
var fairnessSchemes = []string{"HELCFL", "ClassicFL", "FedCS"}

// fairnessRun is one scheme's replay outcome.
type fairnessRun struct {
	Jain     float64
	Coverage float64
}

// FairnessCells returns one selection-replay cell per scheme (no training).
// Each cell builds its own planner via newPlanner, matching the historical
// per-scheme RNG streams (ClassicFL seed+11).
func FairnessCells(p Preset, seed int64, rounds int) ([]grid.Cell, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("experiments: non-positive rounds %d", rounds)
	}
	cells := make([]grid.Cell, 0, len(fairnessSchemes))
	for _, sc := range fairnessSchemes {
		scheme := sc
		cells = append(cells, grid.Cell{
			Experiment: "fairness",
			Preset:     p.Name,
			Setting:    string(IID),
			Scheme:     scheme,
			Variant:    fmt.Sprintf("rounds=%d", rounds),
			Seed:       seed,
			Run: func(context.Context, *rand.Rand) (any, error) {
				env, err := CachedEnv(p, IID, seed)
				if err != nil {
					return nil, err
				}
				planner, err := newPlanner(scheme, env, seed)
				if err != nil {
					return nil, err
				}
				counts := make([]float64, len(env.Devices))
				for j := 0; j < rounds; j++ {
					sel, _ := planner.PlanRound(j)
					for _, q := range sel {
						counts[q]++
					}
				}
				covered := 0
				for _, c := range counts {
					if c > 0 {
						covered++
					}
				}
				return fairnessRun{
					Jain:     stats.JainIndex(counts),
					Coverage: float64(covered) / float64(len(env.Devices)),
				}, nil
			},
		})
	}
	return cells, nil
}

// AssembleFairnessStudy folds FairnessCells results into the study.
func AssembleFairnessStudy(rounds int, res []any) (*FairnessStudy, error) {
	if len(res) != len(fairnessSchemes) {
		return nil, fmt.Errorf("experiments: fairness study got %d results, want %d", len(res), len(fairnessSchemes))
	}
	out := &FairnessStudy{Rounds: rounds}
	for i, scheme := range fairnessSchemes {
		r, err := cellResult[fairnessRun](res, i)
		if err != nil {
			return nil, err
		}
		out.Schemes = append(out.Schemes, scheme)
		out.Jain = append(out.Jain, r.Jain)
		out.Coverage = append(out.Coverage, r.Coverage)
	}
	return out, nil
}

// Render produces the fairness table.
func (f *FairnessStudy) Render() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Selection fairness over %d rounds (Jain index; 1 = uniform)", f.Rounds),
		"scheme", "Jain index", "fleet coverage")
	for i, s := range f.Schemes {
		tb.AddRow(s,
			fmt.Sprintf("%.3f", f.Jain[i]),
			fmt.Sprintf("%.0f%%", f.Coverage[i]*100))
	}
	return tb
}
