// Package experiments reproduces the paper's evaluation section: Fig. 2
// (accuracy curves for HELCFL and four baselines, IID and Non-IID), Table I
// (training delay to reach desired accuracies), Fig. 3 (energy reduction
// from the DVFS frequency determination), plus the ablations called out in
// DESIGN.md (decay coefficient η, selection fraction C, clamped vs literal
// Algorithm 3).
package experiments

import (
	"fmt"

	"helcfl/internal/nn"
	"helcfl/internal/obs"
)

// Setting selects the data distribution across users.
type Setting string

// The two data settings of Section VII-A.
const (
	IID    Setting = "IID"
	NonIID Setting = "Non-IID"
)

// Preset bundles every experiment parameter. Paper() mirrors Section VII-A;
// Fast() and Tiny() scale it down for quick runs and unit tests.
type Preset struct {
	// Name identifies the preset in reports.
	Name string

	// Users is Q, the fleet size.
	Users int
	// TrainN and TestN size the synthetic dataset splits.
	TrainN, TestN int
	// Classes is the label count (CIFAR-10 analogue: 10).
	Classes int
	// Noise is the SynthCIFAR per-pixel noise level.
	Noise float64
	// ShardsPerUser controls the Non-IID split: shards = Users ×
	// ShardsPerUser (paper: 400 shards, 4 per user).
	ShardsPerUser int
	// DirichletAlpha, when positive, replaces the Non-IID shard split with
	// a per-class Dirichlet(α) split (Hsu et al.) — the partition-family
	// ablation. 0 keeps the paper's sort-and-shard scheme.
	DirichletAlpha float64

	// Fraction is the selection fraction C (paper: 0.1).
	Fraction float64
	// Eta is HELCFL's decay coefficient η.
	Eta float64
	// LR is the GD learning rate τ.
	LR float64
	// LocalSteps is full-batch GD passes per round (paper: 1).
	LocalSteps int
	// MaxRounds is J (paper: 300).
	MaxRounds int
	// EvalEvery is the evaluation cadence in rounds.
	EvalEvery int

	// ModelKind and Hidden select the architecture ("mlp", "logistic",
	// "squeezenet-mini").
	ModelKind string
	Hidden    []int

	// CyclesPerUpdate is the per-user CPU cost of one local update in
	// cycles. The paper's users hold 500 CIFAR samples at π = 10⁷
	// cycles/sample, i.e. 5×10⁹ cycles/update; BuildEnv divides this by the
	// actual samples per user to set the device catalog's π.
	CyclesPerUpdate float64
	// ChannelNoise overrides the TDMA channel's noise power N0 when
	// positive (0 keeps wireless.DefaultChannel's value). Lower noise means
	// faster uploads.
	ChannelNoise float64
	// FedCSDeadlineSec is the per-round deadline FedCS packs against.
	FedCSDeadlineSec float64
	// FEDLK is the delay weight of FEDL's closed-form frequency.
	FEDLK float64
	// SLEvalUsers caps how many user models the SL evaluation averages.
	SLEvalUsers int

	// IIDTargets and NonIIDTargets are the desired accuracies of Table I /
	// Fig. 3 in each setting.
	IIDTargets, NonIIDTargets []float64

	// Sink, when non-nil, receives the engine's event stream for every
	// scheme run under this preset (metrics export, verbose progress,
	// streaming traces). Nil keeps the round hot path allocation-free.
	Sink obs.EventSink
}

// Paper returns the full Section VII-A setting. The model is an MLP rather
// than full SqueezeNet so the pure-Go substrate trains 300 rounds × 5
// schemes in minutes; the SqueezeNet-family CNN is exercised by the
// "squeezenet-mini" ablation and the nn package tests (see DESIGN.md).
func Paper() Preset {
	return Preset{
		Name:             "paper",
		Users:            100,
		TrainN:           4000,
		TestN:            1000,
		Classes:          10,
		Noise:            2.2,
		ShardsPerUser:    4,
		Fraction:         0.1,
		Eta:              0.7,
		LR:               0.4,
		LocalSteps:       1,
		MaxRounds:        300,
		EvalEvery:        1,
		ModelKind:        "mlp",
		Hidden:           []int{128},
		CyclesPerUpdate:  5e9,
		FedCSDeadlineSec: 10,
		FEDLK:            0.2,
		SLEvalUsers:      20,
		IIDTargets:       []float64{0.60, 0.70, 0.80},
		NonIIDTargets:    []float64{0.40, 0.50, 0.60},
	}
}

// Fast returns a reduced setting for CLI demos and benchmarks.
func Fast() Preset {
	p := Paper()
	p.Name = "fast"
	p.Users = 40
	p.TrainN = 1600
	p.TestN = 600
	p.MaxRounds = 150
	p.EvalEvery = 2
	p.SLEvalUsers = 10
	return p
}

// Tiny returns a unit-test-scale setting.
func Tiny() Preset {
	p := Paper()
	p.Name = "tiny"
	p.Users = 16
	p.TrainN = 480
	p.TestN = 240
	p.MaxRounds = 60
	p.EvalEvery = 2
	p.Fraction = 0.25
	p.Hidden = []int{32}
	p.FedCSDeadlineSec = 10
	p.SLEvalUsers = 6
	p.IIDTargets = []float64{0.40, 0.55, 0.70}
	p.NonIIDTargets = []float64{0.35, 0.50, 0.65}
	return p
}

// Validate reports preset configuration errors.
func (p Preset) Validate() error {
	switch {
	case p.Users <= 0:
		return fmt.Errorf("experiments: non-positive users %d", p.Users)
	case p.TrainN < p.Users:
		return fmt.Errorf("experiments: %d train samples cannot cover %d users", p.TrainN, p.Users)
	case p.ShardsPerUser <= 0:
		return fmt.Errorf("experiments: non-positive shards per user %d", p.ShardsPerUser)
	case p.Fraction <= 0 || p.Fraction > 1:
		return fmt.Errorf("experiments: fraction %g outside (0,1]", p.Fraction)
	case p.Eta <= 0 || p.Eta >= 1:
		return fmt.Errorf("experiments: eta %g outside (0,1)", p.Eta)
	case p.MaxRounds <= 0 || p.LocalSteps <= 0 || p.LR <= 0:
		return fmt.Errorf("experiments: bad training parameters")
	case p.FedCSDeadlineSec <= 0:
		return fmt.Errorf("experiments: non-positive FedCS deadline %g", p.FedCSDeadlineSec)
	case p.CyclesPerUpdate <= 0:
		return fmt.Errorf("experiments: non-positive cycles per update %g", p.CyclesPerUpdate)
	}
	return nil
}

// SlackRich derives the cost-model regime in which Algorithm 3's savings
// peak, matching the paper's ~58% headline: per-update compute at the
// literal π with our small per-user datasets (so compute energy dominates
// the budget) over a fast uplink whose per-user airtime is comparable to
// the compute-delay gaps (so every selected user queues behind the TDMA
// channel and accumulates Fig. 1 slack). Used by the fig3-regime ablation.
func SlackRich(p Preset) Preset {
	p.Name += "-slackrich"
	p.CyclesPerUpdate = 4e8
	p.ChannelNoise = 0.1
	return p
}

// Spec returns the model architecture for this preset.
func (p Preset) Spec() nn.ModelSpec {
	return nn.ModelSpec{Kind: p.ModelKind, InC: 3, H: 8, W: 8, Classes: p.Classes, Hidden: p.Hidden}
}

// Targets returns the desired-accuracy list for a setting.
func (p Preset) Targets(s Setting) []float64 {
	if s == IID {
		return p.IIDTargets
	}
	return p.NonIIDTargets
}

// LookupPreset resolves a preset by its Name ("paper", "fast", "tiny"),
// as the CLI's -preset flag names it.
func LookupPreset(name string) (Preset, error) {
	switch name {
	case "paper":
		return Paper(), nil
	case "fast":
		return Fast(), nil
	case "tiny":
		return Tiny(), nil
	}
	return Preset{}, fmt.Errorf("experiments: unknown preset %q", name)
}
