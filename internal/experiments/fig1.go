package experiments

import (
	"fmt"

	"helcfl/internal/grid"
	"helcfl/internal/report"
	"helcfl/internal/sim"
)

// Fig1Demo reproduces the paper's Fig. 1 illustration: it runs one HELCFL
// selection, simulates the cohort at maximum frequency, and returns the
// timeline (with its stop-and-wait slack) next to the Algorithm 3 timeline
// that reclaims it.
type Fig1Demo struct {
	MaxFreq  sim.RoundResult
	WithDVFS sim.RoundResult
}

// Fig1Cells wraps the Fig. 1 demonstration as a single cell.
func Fig1Cells(p Preset, seed int64) []grid.Cell {
	return []grid.Cell{newCell("fig1", "HELCFL", "", p, IID, seed, nil, fig1Demo)}
}

// AssembleFig1Demo extracts the single Fig. 1 result.
func AssembleFig1Demo(res []any) (*Fig1Demo, error) {
	if len(res) != 1 {
		return nil, fmt.Errorf("experiments: fig1 demo got %d results, want 1", len(res))
	}
	return cellResult[*Fig1Demo](res, 0)
}

// fig1Demo is the body of the demonstration cell.
func fig1Demo(c cellEnv) (*Fig1Demo, error) {
	h, err := newPlanner("HELCFL", c.Env)
	if err != nil {
		return nil, err
	}
	devs, freqs := plannedCohort(h, c.Devices, 0)
	steps := c.Preset.LocalSteps
	return &Fig1Demo{
		MaxFreq:  sim.SimulateRound(devs, sim.MaxFrequencies(devs), c.Channel, c.ModelBits, steps),
		WithDVFS: sim.SimulateRound(devs, freqs, c.Channel, c.ModelBits, steps),
	}, nil
}

// Render draws both timelines as tables of per-user intervals.
func (f *Fig1Demo) Render() (*report.Table, *report.Table) {
	mk := func(title string, r sim.RoundResult) *report.Table {
		tb := report.NewTable(title, "user", "freq (GHz)", "compute ends", "upload", "wait (slack)")
		for _, u := range r.Users {
			tb.AddRow(
				fmt.Sprintf("v%d", u.User),
				fmt.Sprintf("%.2f", u.Freq/1e9),
				fmt.Sprintf("%.2fs", u.ComputeDelay),
				fmt.Sprintf("[%.2fs, %.2fs]", u.UploadStart, u.UploadEnd),
				fmt.Sprintf("%.2fs", u.Wait),
			)
		}
		tb.AddRow("—", "—", "—", fmt.Sprintf("makespan %.2fs", r.Makespan),
			fmt.Sprintf("total %.2fs", r.TotalSlack))
		return tb
	}
	return mk("Fig. 1 reproduction: traditional TDMA FL (max frequency)", f.MaxFreq),
		mk("Fig. 1 reproduction: HELCFL DVFS (Algorithm 3)", f.WithDVFS)
}

// RenderGantt draws both round timelines as Gantt charts — the visual
// reproduction of the paper's Fig. 1.
func (f *Fig1Demo) RenderGantt() (*report.Gantt, *report.Gantt) {
	mk := func(title string, r sim.RoundResult) *report.Gantt {
		g := report.NewGantt(title)
		for _, u := range r.Users {
			g.Add(report.GanttBar{
				Label:       fmt.Sprintf("v%d", u.User),
				ComputeEnd:  u.ComputeDelay,
				UploadStart: u.UploadStart,
				UploadEnd:   u.UploadEnd,
			})
		}
		return g
	}
	return mk("Fig. 1: traditional TDMA FL (max frequency)", f.MaxFreq),
		mk("Fig. 1: HELCFL DVFS (Algorithm 3)", f.WithDVFS)
}
