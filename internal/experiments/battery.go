package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/report"
	"helcfl/internal/selection"
	"helcfl/internal/sim"
)

// BatteryCampaign compares the schemes when devices carry finite energy
// budgets — the paper's Section I motivation. Two effects emerge: DVFS
// (Algorithm 3) stretches device lifetime, and selection policy decides
// *which* devices die — FedCS burns out its fixed fast cohort and halts.
type BatteryCampaign struct {
	Setting Setting
	// CapacityJ is the per-device battery budget.
	CapacityJ float64
	// Per-scheme outcomes.
	Best       map[string]float64
	FinalAlive map[string]int
	RoundsDone map[string]int
	Halted     map[string]bool
	Fleet      int
}

// batterySchemes are compared in the campaign; HELCFL-noDVFS isolates
// Algorithm 3's lifetime contribution.
var batterySchemes = []string{"HELCFL", "HELCFL-noDVFS", "ClassicFL", "FedCS", "FEDL"}

// EstimateSelectedUserRoundEnergy simulates one max-frequency HELCFL round
// on the environment and returns the mean per-selected-user energy — the
// natural unit for battery budgets.
func EstimateSelectedUserRoundEnergy(env *Env) (float64, error) {
	h, err := selection.NewHELCFL(env.Devices, env.Channel, env.ModelBits, core.Params{
		Eta: env.Preset.Eta, Fraction: env.Preset.Fraction, StepsPerRound: env.Preset.LocalSteps, Clamp: true,
	})
	if err != nil {
		return 0, err
	}
	sel, _ := h.PlanRound(0)
	devs := make([]*device.Device, len(sel))
	for i, q := range sel {
		devs[i] = env.Devices[q]
	}
	round := sim.SimulateRound(devs, sim.MaxFrequencies(devs), env.Channel, env.ModelBits, env.Preset.LocalSteps)
	return round.TotalEnergy / float64(len(sel)), nil
}

// batteryRun is one scheme's cell result; CapacityJ and Fleet repeat the
// shared (deterministically re-derived) campaign parameters.
type batteryRun struct {
	CapacityJ float64
	Fleet     int
	Run       schemeRun
}

// BatteryCells returns one finite-battery training cell per scheme. Each
// cell re-derives the capacity from its own environment rebuild — the
// estimate is deterministic in (preset, setting, seed), so every cell
// agrees with the historical shared-environment computation.
func BatteryCells(p Preset, s Setting, seed int64, selectionsOfBudget float64) ([]grid.Cell, error) {
	if selectionsOfBudget <= 0 {
		return nil, fmt.Errorf("experiments: non-positive battery budget %g", selectionsOfBudget)
	}
	cells := make([]grid.Cell, 0, len(batterySchemes))
	for _, sc := range batterySchemes {
		scheme := sc
		cells = append(cells, grid.Cell{
			Experiment: "battery",
			Preset:     p.Name,
			Setting:    string(s),
			Scheme:     scheme,
			Variant:    fmt.Sprintf("sel=%g", selectionsOfBudget),
			Seed:       seed,
			Run: func(context.Context, *rand.Rand) (any, error) {
				env, err := CachedEnv(p, s, seed)
				if err != nil {
					return nil, err
				}
				perSel, err := EstimateSelectedUserRoundEnergy(env)
				if err != nil {
					return nil, err
				}
				capacity := selectionsOfBudget * perSel
				curve, res, err := RunSchemeWith(env, scheme, func(c *fl.Config) {
					c.BatteryCapacityJ = capacity
				})
				if err != nil {
					return nil, err
				}
				return batteryRun{
					CapacityJ: capacity,
					Fleet:     len(env.Devices),
					Run:       schemeRun{Curve: curve, Res: res},
				}, nil
			},
		})
	}
	return cells, nil
}

// AssembleBatteryCampaign folds BatteryCells results into the campaign.
func AssembleBatteryCampaign(s Setting, res []any) (*BatteryCampaign, error) {
	if len(res) != len(batterySchemes) {
		return nil, fmt.Errorf("experiments: battery campaign got %d results, want %d", len(res), len(batterySchemes))
	}
	out := &BatteryCampaign{
		Setting:    s,
		Best:       map[string]float64{},
		FinalAlive: map[string]int{},
		RoundsDone: map[string]int{},
		Halted:     map[string]bool{},
	}
	for i, scheme := range batterySchemes {
		r, err := cellResult[batteryRun](res, i)
		if err != nil {
			return nil, err
		}
		out.CapacityJ = r.CapacityJ
		out.Fleet = r.Fleet
		out.Best[scheme] = r.Run.Curve.Best()
		out.RoundsDone[scheme] = len(r.Run.Res.Records)
		out.Halted[scheme] = r.Run.Res.HaltedByDeadFleet
		if n := len(r.Run.Res.Records); n > 0 {
			out.FinalAlive[scheme] = r.Run.Res.Records[n-1].AliveDevices
		} else {
			out.FinalAlive[scheme] = r.Fleet
		}
	}
	return out, nil
}

// Render produces the lifetime-comparison table.
func (b *BatteryCampaign) Render() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Battery campaign (%s): %.1f J per device", b.Setting, b.CapacityJ),
		"scheme", "rounds done", "devices alive", "halted", "best accuracy")
	for _, scheme := range batterySchemes {
		halted := "no"
		if b.Halted[scheme] {
			halted = "yes"
		}
		tb.AddRow(scheme,
			fmt.Sprintf("%d", b.RoundsDone[scheme]),
			fmt.Sprintf("%d/%d", b.FinalAlive[scheme], b.Fleet),
			halted,
			metrics.FormatPercent(b.Best[scheme]))
	}
	return tb
}
