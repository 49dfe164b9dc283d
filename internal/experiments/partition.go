package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/dataset"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
)

// PartitionAblation compares HELCFL under different Non-IID partition
// families: the paper's sort-and-shard split and Dirichlet(α) splits of
// varying severity.
type PartitionAblation struct {
	Labels []string
	// MeanLabels is the average distinct labels per user under each split.
	MeanLabels []float64
	Best       []float64
	// RoundsToLow is the first round reaching the lowest Non-IID target.
	RoundsToLow []int
}

// partitionRun is one partition family's cell result: the trained curve
// plus the realized per-user label diversity.
type partitionRun struct {
	MeanLabels float64
	Run        schemeRun
}

// partitionLabels names the families PartitionCells emits, in order.
func partitionLabels(p Preset, alphas []float64) []string {
	labels := []string{fmt.Sprintf("shards (%d/user)", p.ShardsPerUser)}
	for _, a := range alphas {
		labels = append(labels, fmt.Sprintf("dirichlet α=%.2f", a))
	}
	return labels
}

// partitionCell trains HELCFL on one Non-IID partition family.
func partitionCell(pp Preset, seed int64, variant string) grid.Cell {
	return grid.Cell{
		Experiment: "partition",
		Preset:     pp.Name,
		Setting:    string(NonIID),
		Scheme:     "HELCFL",
		Variant:    variant,
		Seed:       seed,
		Run: func(context.Context, *rand.Rand) (any, error) {
			env, err := CachedEnv(pp, NonIID, seed)
			if err != nil {
				return nil, err
			}
			curve, res, err := RunScheme(env, "HELCFL")
			if err != nil {
				return nil, err
			}
			return partitionRun{
				MeanLabels: dataset.MeanDistinctLabels(env.UserData, pp.Classes),
				Run:        schemeRun{Curve: curve, Res: res},
			}, nil
		},
	}
}

// PartitionCells returns the sort-and-shard family followed by one
// Dirichlet(α) family per alpha, matching partitionLabels order.
func PartitionCells(p Preset, seed int64, alphas []float64) []grid.Cell {
	cells := []grid.Cell{partitionCell(p, seed, fmt.Sprintf("shards=%d", p.ShardsPerUser))}
	for _, a := range alphas {
		pp := p
		pp.DirichletAlpha = a
		cells = append(cells, partitionCell(pp, seed, fmt.Sprintf("dirichlet=%g", a)))
	}
	return cells
}

// AssemblePartitionAblation folds PartitionCells results into the study.
func AssemblePartitionAblation(p Preset, alphas []float64, res []any) (*PartitionAblation, error) {
	labels := partitionLabels(p, alphas)
	if len(res) != len(labels) {
		return nil, fmt.Errorf("experiments: partition study got %d results, want %d", len(res), len(labels))
	}
	out := &PartitionAblation{}
	target := p.Targets(NonIID)[0]
	for i, label := range labels {
		r, err := cellResult[partitionRun](res, i)
		if err != nil {
			return nil, err
		}
		rounds := -1
		if n, ok := r.Run.Curve.RoundsToAccuracy(target); ok {
			rounds = n
		}
		out.Labels = append(out.Labels, label)
		out.MeanLabels = append(out.MeanLabels, r.MeanLabels)
		out.Best = append(out.Best, r.Run.Curve.Best())
		out.RoundsToLow = append(out.RoundsToLow, rounds)
	}
	return out, nil
}

// Render produces the partition-family table.
func (a *PartitionAblation) Render() *report.Table {
	tb := report.NewTable("Ablation (Non-IID): partition family",
		"partition", "labels/user", "best accuracy", "rounds to first target")
	for i, l := range a.Labels {
		rt := "✗"
		if a.RoundsToLow[i] >= 0 {
			rt = fmt.Sprintf("%d", a.RoundsToLow[i])
		}
		tb.AddRow(l,
			fmt.Sprintf("%.1f", a.MeanLabels[i]),
			metrics.FormatPercent(a.Best[i]),
			rt)
	}
	return tb
}
