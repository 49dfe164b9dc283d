package experiments

import (
	"fmt"

	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
	"helcfl/internal/selection"
)

// The hierarchical edge-aggregation study: HELCFL with the fleet sharded
// across E edge aggregators (selection.NewHierHELCFL). Each edge runs its
// own Algorithm 2+3 plan against its own parallel TDMA uplink, and the FLCC
// performs a second-level weighted FedAvg over the edge models. E = 1 is
// the flat paper scheme (bit-identical; the selection/fl tests pin it), so
// the sweep isolates what the tier buys: parallel uplinks shrink round
// makespan while the two-level average perturbs accuracy only marginally.

// hierEdgeCounts is the canonical CLI sweep.
var hierEdgeCounts = []int{1, 2, 4, 8}

// hierRun is one cell's result: the edge count plus the usual training run.
type hierRun struct {
	Edges int
	Curve metrics.Curve
	Res   *fl.Result
}

// HierCells returns one hierarchical training cell per edge count.
func HierCells(p Preset, s Setting, seed int64, edgeCounts []int) ([]grid.Cell, error) {
	cells := make([]grid.Cell, 0, len(edgeCounts))
	for _, edges := range edgeCounts {
		if edges <= 0 {
			return nil, fmt.Errorf("experiments: non-positive edge count %d", edges)
		}
		if edges > p.Users {
			return nil, fmt.Errorf("experiments: %d edge aggregators for %d users", edges, p.Users)
		}
		cells = append(cells, newCell("hier", "HELCFL-hier", fmt.Sprintf("edges=%d", edges), p, s, seed, nil,
			func(c cellEnv) (hierRun, error) {
				planner, err := selection.NewHierHELCFL(c.Devices, edges, c.Channel, c.ModelBits, presetParams(p))
				if err != nil {
					return hierRun{}, err
				}
				// Model init (seed+100) is shared with the flat schemes.
				run, err := c.train(planner.Name(), func(cfg *fl.Config) { cfg.Planner = planner })
				return hierRun{Edges: edges, Curve: run.Curve, Res: run.Res}, err
			}))
	}
	return cells, nil
}

// HierStudy is the assembled edge-count sweep for one data setting.
type HierStudy struct {
	Setting Setting
	Edges   []int
	// BestAcc and FinalAcc fingerprint the accuracy cost of two-level
	// averaging; TotalTime shows the parallel-uplink makespan win.
	BestAcc, FinalAcc []float64
	TotalTime         []float64
	TotalEnergy       []float64
	MeanMakespan      []float64
	MeanSlack         []float64
}

// AssembleHierStudy folds HierCells results into the sweep.
func AssembleHierStudy(s Setting, edgeCounts []int, res []any) (*HierStudy, error) {
	if len(res) != len(edgeCounts) {
		return nil, fmt.Errorf("experiments: hier sweep got %d results, want %d", len(res), len(edgeCounts))
	}
	out := &HierStudy{Setting: s}
	for i, e := range edgeCounts {
		r, err := cellResult[hierRun](res, i)
		if err != nil {
			return nil, err
		}
		if r.Edges != e {
			return nil, fmt.Errorf("experiments: hier result %d has %d edges, want %d", i, r.Edges, e)
		}
		rounds := float64(len(r.Res.Records))
		slack := 0.0
		for _, rec := range r.Res.Records {
			slack += rec.Slack
		}
		out.Edges = append(out.Edges, e)
		out.BestAcc = append(out.BestAcc, r.Res.BestAccuracy)
		out.FinalAcc = append(out.FinalAcc, r.Res.FinalAccuracy)
		out.TotalTime = append(out.TotalTime, r.Res.TotalTime)
		out.TotalEnergy = append(out.TotalEnergy, r.Res.TotalEnergy)
		out.MeanMakespan = append(out.MeanMakespan, r.Res.TotalTime/rounds)
		out.MeanSlack = append(out.MeanSlack, slack/rounds)
	}
	return out, nil
}

// Render produces the edge-count table.
func (h *HierStudy) Render() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Hierarchical edge aggregation (%s): E parallel uplinks + two-level FedAvg", h.Setting),
		"edges", "best acc", "final acc", "total time (s)", "total energy (J)", "mean round (s)", "mean slack (s)")
	for i, e := range h.Edges {
		tb.AddRow(
			fmt.Sprintf("%d", e),
			fmt.Sprintf("%.4f", h.BestAcc[i]),
			fmt.Sprintf("%.4f", h.FinalAcc[i]),
			fmt.Sprintf("%.1f", h.TotalTime[i]),
			fmt.Sprintf("%.1f", h.TotalEnergy[i]),
			fmt.Sprintf("%.2f", h.MeanMakespan[i]),
			fmt.Sprintf("%.2f", h.MeanSlack[i]),
		)
	}
	return tb
}

// hierPlan is the "hier" experiment: the edge-count sweep in both data
// settings.
func hierPlan(p Preset, seed int64) (*Plan, error) {
	counts := make([]int, 0, len(hierEdgeCounts))
	for _, e := range hierEdgeCounts {
		if e <= p.Users {
			counts = append(counts, e)
		}
	}
	return eachSetting(func(s Setting) (*Plan, error) {
		cells, err := HierCells(p, s, seed, counts)
		if err != nil {
			return nil, err
		}
		return sectionPlan("", cells, func(res []any) (fmt.Stringer, error) {
			hs, err := AssembleHierStudy(s, counts, res)
			if err != nil {
				return nil, err
			}
			return hs.Render(), nil
		}), nil
	})
}
