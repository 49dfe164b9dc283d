// Package helcfl is a from-scratch Go reproduction of "HELCFL:
// High-Efficiency and Low-Cost Federated Learning in Heterogeneous
// Mobile-Edge Computing" (Cui, Cao, Zhou, Wei — DATE 2022).
//
// The package is a facade over the full system:
//
//   - the HELCFL scheduler — utility-driven greedy-decay user selection
//     (Algorithm 2, Eq. 20) and DVFS-enabled operating-frequency
//     determination (Algorithm 3) — in internal/core;
//   - a federated-learning engine (Algorithm 1, FedAvg, separated-learning
//     baseline) over a from-scratch neural-network substrate (tensors,
//     layers including SqueezeNet-style Fire modules, GD training);
//   - the MEC cost substrate: DVFS devices (Eqs. 4–5), a TDMA Shannon-rate
//     uplink (Eqs. 6–8), and an event-accurate round-timeline simulator;
//   - the four baselines of the paper's evaluation (Classic FL, FedCS,
//     FEDL, SL) and the harness regenerating Fig. 2, Table I, and Fig. 3.
//
// # Quick start
//
//	res, err := helcfl.Train(helcfl.TinyPreset(), helcfl.IID, 1)
//	fig2, err := helcfl.RunFig2(helcfl.FastPreset(), helcfl.NonIID, 1)
//
// See the examples/ directory for runnable programs and cmd/helcfl for the
// experiment CLI.
package helcfl

import (
	"context"

	"helcfl/internal/core"
	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/selection"
)

// Setting selects the data distribution across users.
type Setting = experiments.Setting

// The two data settings of the paper's evaluation.
const (
	IID    = experiments.IID
	NonIID = experiments.NonIID
)

// Preset bundles every experiment parameter (fleet size, data scale,
// selection fraction C, decay coefficient η, model architecture, cost-model
// calibration, desired-accuracy targets).
type Preset = experiments.Preset

// PaperPreset returns the paper's Section VII-A configuration: Q = 100
// users, C = 0.1, 300 training iterations, 10-class data.
func PaperPreset() Preset { return experiments.Paper() }

// FastPreset returns a reduced configuration for demos and benchmarks.
func FastPreset() Preset { return experiments.Fast() }

// TinyPreset returns a unit-test-scale configuration.
func TinyPreset() Preset { return experiments.Tiny() }

// SlackRichPreset derives the cost-model variant in which DVFS slack — and
// therefore the Fig. 3 energy reduction — is maximal (the paper's ~58%
// regime).
func SlackRichPreset(p Preset) Preset { return experiments.SlackRich(p) }

// Env is a fully built experiment environment: synthetic dataset, user
// partition, heterogeneous DVFS fleet, TDMA channel, and model spec.
type Env = experiments.Env

// BuildEnv instantiates an environment deterministically from a seed.
func BuildEnv(p Preset, s Setting, seed int64) (*Env, error) {
	return experiments.BuildEnv(p, s, seed)
}

// Curve is an accuracy/time/energy training trajectory.
type Curve = metrics.Curve

// Point is one evaluated moment of a training run.
type Point = metrics.Point

// SchedulerParams configures the HELCFL core scheduler (η, C, local steps,
// frequency clamping).
type SchedulerParams = core.Params

// DefaultSchedulerParams returns the paper's scheduler setting.
func DefaultSchedulerParams() SchedulerParams { return core.DefaultParams() }

// PresetSchedulerParams derives the scheduler parameters (η, C, local
// steps) that a preset's experiments use.
func PresetSchedulerParams(p Preset) SchedulerParams {
	return SchedulerParams{Eta: p.Eta, Fraction: p.Fraction, StepsPerRound: p.LocalSteps, Clamp: true}
}

// Planner makes per-round selection + frequency decisions inside the FL
// engine.
type Planner = fl.Planner

// TrainConfig configures a single federated training run.
type TrainConfig = fl.Config

// TrainResult is a completed federated training run.
type TrainResult = fl.Result

// SchemeOrder lists the five schemes of the paper's comparison in display
// order: HELCFL, ClassicFL, FedCS, FEDL, SL.
var SchemeOrder = experiments.SchemeOrder

// Train runs one HELCFL training campaign on a fresh environment and
// returns the engine result. It is the simplest end-to-end entry point; use
// RunScheme for baselines or fl.Run via TrainConfig for full control.
func Train(p Preset, s Setting, seed int64) (*TrainResult, error) {
	env, err := experiments.BuildEnv(p, s, seed)
	if err != nil {
		return nil, err
	}
	_, res, err := experiments.RunScheme(env, "HELCFL")
	return res, err
}

// RunScheme trains one named scheme ("HELCFL", "HELCFL-noDVFS",
// "ClassicFL", "FedCS", "FEDL") on an environment and returns its curve and
// engine result.
func RunScheme(env *Env, scheme string) (Curve, *TrainResult, error) {
	return experiments.RunScheme(env, scheme)
}

// Fig2Result is one panel of the paper's Fig. 2.
type Fig2Result = experiments.Fig2Result

// RunFig2 reproduces one Fig. 2 panel: accuracy vs iteration for all five
// schemes on a shared environment. Like RunTableI and RunFig3 it runs the
// registry's own cells on a grid.Runner (all cores) and assembles them.
func RunFig2(p Preset, s Setting, seed int64) (*Fig2Result, error) {
	res, err := (&grid.Runner{}).Run(context.Background(), experiments.Fig2Cells(p, s, seed))
	if err != nil {
		return nil, err
	}
	return experiments.AssembleFig2(s, res)
}

// TableIResult is the reproduction of Table I.
type TableIResult = experiments.TableIResult

// RunTableI reproduces Table I by training both settings' campaigns and
// extracting the training delay to each desired accuracy.
func RunTableI(p Preset, seed int64) (*TableIResult, map[Setting]*Fig2Result, error) {
	figs := map[Setting]*Fig2Result{}
	for _, s := range []Setting{IID, NonIID} {
		f, err := RunFig2(p, s, seed)
		if err != nil {
			return nil, nil, err
		}
		figs[s] = f
	}
	return experiments.BuildTableI(p, figs), figs, nil
}

// Fig3Result is the reproduction of Fig. 3.
type Fig3Result = experiments.Fig3Result

// RunFig3 reproduces Fig. 3: energy to each desired accuracy with and
// without Algorithm 3's frequency determination.
func RunFig3(p Preset, s Setting, seed int64) (*Fig3Result, error) {
	res, err := (&grid.Runner{}).Run(context.Background(), experiments.Fig3Cells(p, s, seed))
	if err != nil {
		return nil, err
	}
	return experiments.AssembleFig3(p, s, res)
}

// Headline summarizes the paper's abstract-level claims over a campaign.
type Headline = experiments.Headline

// BuildHeadline computes the measured counterparts of the paper's headline
// numbers from campaign results.
func BuildHeadline(figs map[Setting]*Fig2Result, tbl *TableIResult, fig3s map[Setting]*Fig3Result) *Headline {
	return experiments.BuildHeadline(figs, tbl, fig3s)
}

// NewHELCFLPlanner builds the HELCFL scheduler as a Planner over an
// environment, for embedding in custom fl.Config runs.
func NewHELCFLPlanner(env *Env, params SchedulerParams) (Planner, error) {
	return selection.NewHELCFL(env.Devices, env.Channel, env.ModelBits, params)
}
