package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/core"
	"helcfl/internal/grid"
	"helcfl/internal/report"
	"helcfl/internal/selection"
	"helcfl/internal/stats"
	"helcfl/internal/wireless"
)

// RBAblation contrasts the two readings of the paper's "available Z RBs":
// one full-rate TDMA channel (the base system's Fig. 1 discipline) versus
// splitting Z into k equal sub-channels used in parallel, where each upload
// runs k× longer but k proceed at once. It replays HELCFL's selected
// cohorts at maximum frequency and measures the round makespan under each
// interpretation.
type RBAblation struct {
	Rounds int
	Ks     []int
	// Makespan[i] summarizes per-round makespans for Ks[i] sub-channels
	// (k = 1 is the serial TDMA baseline).
	Makespan []stats.Summary
}

// RBCells wraps the RB study as a single cell: the replay shares one
// selection sequence across every k, so it is indivisible.
func RBCells(p Preset, seed int64, rounds int, ks []int) ([]grid.Cell, error) {
	if rounds <= 0 || len(ks) == 0 {
		return nil, fmt.Errorf("experiments: RB ablation needs rounds and channel counts")
	}
	return []grid.Cell{{
		Experiment: "rb",
		Preset:     p.Name,
		Setting:    string(IID),
		Scheme:     "HELCFL",
		Variant:    fmt.Sprintf("rounds=%d,ks=%v", rounds, ks),
		Seed:       seed,
		Run: func(context.Context, *rand.Rand) (any, error) {
			return rbStudy(p, seed, rounds, ks)
		},
	}}, nil
}

// AssembleRBAblation extracts the single RB-study result.
func AssembleRBAblation(res []any) (*RBAblation, error) {
	if len(res) != 1 {
		return nil, fmt.Errorf("experiments: RB study got %d results, want 1", len(res))
	}
	return cellResult[*RBAblation](res, 0)
}

// rbStudy is the serial body of the RB study.
func rbStudy(p Preset, seed int64, rounds int, ks []int) (*RBAblation, error) {
	env, err := CachedEnv(p, IID, seed)
	if err != nil {
		return nil, err
	}
	h, err := selection.NewHELCFL(env.Devices, env.Channel, env.ModelBits, core.Params{
		Eta: p.Eta, Fraction: p.Fraction, StepsPerRound: p.LocalSteps, Clamp: true,
	})
	if err != nil {
		return nil, err
	}
	perK := make([][]float64, len(ks))
	for j := 0; j < rounds; j++ {
		sel, _ := h.PlanRound(j)
		baseReqs := make([]wireless.UploadRequest, len(sel))
		for i, q := range sel {
			d := env.Devices[q]
			baseReqs[i] = wireless.UploadRequest{
				User:        q,
				ComputeDone: float64(p.LocalSteps) * d.ComputeDelayAtMax(),
				Duration:    env.Channel.UploadDelay(env.ModelBits, d.TxPower, d.ChannelGain),
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
	out := &RBAblation{Rounds: rounds, Ks: ks}
	for _, ms := range perK {
		out.Makespan = append(out.Makespan, stats.Summarize(ms))
	}
	return out, nil
}

// Render produces the comparison table.
func (a *RBAblation) Render() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Ablation: RB interpretation — serial TDMA vs k parallel sub-channels (%d rounds)", a.Rounds),
		"sub-channels", "round makespan (mean ± std)")
	for i, k := range a.Ks {
		label := fmt.Sprintf("%d (parallel)", k)
		if k == 1 {
			label = "1 (serial TDMA)"
		}
		tb.AddRow(label, fmt.Sprintf("%.2fs ± %.2f", a.Makespan[i].Mean, a.Makespan[i].Std))
	}
	return tb
}
