package experiments

import (
	"fmt"
	"math/rand"

	"helcfl/internal/core"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/selection"
)

// SchemeOrder is the display order of Fig. 2's five curves.
var SchemeOrder = []string{"HELCFL", "ClassicFL", "FedCS", "FEDL", "SL"}

// Fig2Result holds one setting's accuracy-vs-iteration comparison.
type Fig2Result struct {
	Setting Setting
	// Curves maps scheme name → evaluated trajectory.
	Curves map[string]metrics.Curve
}

// Curve returns a scheme's curve, panicking on unknown names to catch
// typos in report code.
func (r *Fig2Result) Curve(scheme string) metrics.Curve {
	c, ok := r.Curves[scheme]
	if !ok {
		panic(fmt.Sprintf("experiments: no curve for scheme %q", scheme))
	}
	return c
}

// presetParams is the HELCFL scheduler setting every preset planner uses.
func presetParams(p Preset) core.Params {
	return core.Params{Eta: p.Eta, Fraction: p.Fraction, StepsPerRound: p.LocalSteps, Clamp: true}
}

// newPlanner builds the planner for a named scheme over the environment.
// Each scheme gets an independent RNG seeded from the environment's seed.
func newPlanner(name string, env *Env) (fl.Planner, error) {
	p := env.Preset
	switch name {
	case "HELCFL", "HELCFL-noDVFS":
		h, err := selection.NewHELCFL(env.Devices, env.Channel, env.ModelBits, presetParams(p))
		if err != nil {
			return nil, err
		}
		h.DisableDVFS = name == "HELCFL-noDVFS"
		return h, nil
	case "ClassicFL":
		return selection.NewClassicFL(env.Devices, p.Fraction, rand.New(rand.NewSource(env.Seed+11))), nil
	case "FedCS":
		return selection.NewFedCS(env.Devices, env.Channel, env.ModelBits, p.FedCSDeadlineSec, p.LocalSteps), nil
	case "FEDL":
		return selection.NewFEDL(env.Devices, p.Fraction, p.FEDLK, rand.New(rand.NewSource(env.Seed+13))), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
}

// plannedCohort plans round j and gathers the selected devices, in plan
// order, with their planned frequencies.
func plannedCohort(h fl.Planner, devices []*device.Device, j int) ([]*device.Device, []float64) {
	sel, freqs := h.PlanRound(j)
	devs := make([]*device.Device, len(sel))
	for i, q := range sel {
		devs[i] = devices[q]
	}
	return devs, freqs
}

// RunScheme executes one FL scheme on the environment and returns its curve.
func RunScheme(env *Env, scheme string) (metrics.Curve, *fl.Result, error) {
	return RunSchemeWith(env, scheme, nil)
}

// RunSchemeWith is RunScheme with extra engine configuration applied by
// mutate before the run (deadline, fault injection, fading, compression,
// tracing). scheme names the curve and, unless mutate installs a Planner,
// picks the preset planner.
func RunSchemeWith(env *Env, scheme string, mutate func(*fl.Config)) (metrics.Curve, *fl.Result, error) {
	cfg := fl.Config{
		Spec:       env.Spec,
		Devices:    env.Devices,
		Channel:    env.Channel,
		UserData:   env.UserData,
		Test:       env.Synth.Test,
		LR:         env.Preset.LR,
		LocalSteps: env.Preset.LocalSteps,
		MaxRounds:  env.Preset.MaxRounds,
		EvalEvery:  env.Preset.EvalEvery,
		Seed:       env.Seed + 100, // model init shared by all schemes
		Sink:       env.Preset.Sink,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if cfg.Planner == nil {
		planner, err := newPlanner(scheme, env)
		if err != nil {
			return metrics.Curve{}, nil, err
		}
		cfg.Planner = planner
	}
	res, err := fl.Run(cfg)
	if err != nil {
		return metrics.Curve{}, nil, err
	}
	return metrics.CurveFromRecords(res.Records), res, nil
}

// runSL executes the separated-learning baseline and adapts it to a curve.
func runSL(env *Env) (metrics.Curve, error) {
	p := env.Preset
	records, err := fl.RunSL(fl.SLConfig{
		Spec:       env.Spec,
		Devices:    env.Devices,
		UserData:   env.UserData,
		Test:       env.Synth.Test,
		Fraction:   p.Fraction,
		LR:         p.LR,
		LocalSteps: p.LocalSteps,
		MaxRounds:  p.MaxRounds,
		EvalEvery:  p.EvalEvery,
		EvalUsers:  p.SLEvalUsers,
		Seed:       env.Seed + 100,
	})
	if err != nil {
		return metrics.Curve{}, err
	}
	return metrics.CurveFromRecords(records), nil
}

// Fig2Cells returns one Fig. 2 panel as cells: the five schemes of
// SchemeOrder, each training on its own deterministic rebuild of the
// (preset, setting, seed) environment.
func Fig2Cells(p Preset, s Setting, seed int64) []grid.Cell {
	cells := make([]grid.Cell, 0, len(SchemeOrder))
	for _, scheme := range SchemeOrder {
		cells = append(cells, trainCell(p, s, seed, scheme, "", nil))
	}
	return cells
}

// AssembleFig2 folds Fig2Cells results back into a panel.
func AssembleFig2(s Setting, res []any) (*Fig2Result, error) {
	if len(res) != len(SchemeOrder) {
		return nil, fmt.Errorf("experiments: fig2 panel got %d results, want %d", len(res), len(SchemeOrder))
	}
	out := &Fig2Result{Setting: s, Curves: map[string]metrics.Curve{}}
	for i, scheme := range SchemeOrder {
		r, err := cellResult[schemeRun](res, i)
		if err != nil {
			return nil, err
		}
		out.Curves[scheme] = r.Curve
	}
	return out, nil
}
