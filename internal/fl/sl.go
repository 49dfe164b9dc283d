package fl

import (
	"fmt"
	"math/rand"

	"helcfl/internal/core"
	"helcfl/internal/dataset"
	"helcfl/internal/device"
	"helcfl/internal/nn"
	"helcfl/internal/sim"
	"helcfl/internal/tensor"
)

// SLConfig configures the separated-learning baseline (the paper's "SL"
// [4]): every user trains its own persistent model on its own data only —
// no uploads, no aggregation. For cost parity with the FL schemes, the same
// random fraction C of users performs one local update per round.
type SLConfig struct {
	Spec       nn.ModelSpec
	Devices    []*device.Device
	UserData   []*dataset.Dataset
	Test       *dataset.Dataset
	Fraction   float64
	LR         float64
	LocalSteps int
	MaxRounds  int
	EvalEvery  int
	// EvalUsers caps how many user models are averaged per evaluation
	// (deterministic prefix after a seeded shuffle); 0 means all users.
	// Reported SL accuracy is the mean test accuracy across those models.
	EvalUsers int
	Seed      int64
}

// RunSL executes separated learning. Selected users run at maximum
// frequency (there is no slack to reclaim: with no uploads, the round ends
// when the slowest selected user finishes computing). Round delay is
// max T_cal; round energy is Σ E_cal; no communication occurs. It returns
// one record per round.
func RunSL(cfg SLConfig) ([]RoundRecord, error) {
	switch {
	case len(cfg.Devices) == 0:
		return nil, fmt.Errorf("fl: SL with no devices")
	case len(cfg.UserData) != len(cfg.Devices):
		return nil, fmt.Errorf("fl: SL %d datasets for %d devices", len(cfg.UserData), len(cfg.Devices))
	case cfg.Fraction <= 0 || cfg.Fraction > 1:
		return nil, fmt.Errorf("fl: SL fraction %g outside (0,1]", cfg.Fraction)
	case cfg.LR <= 0 || cfg.LocalSteps <= 0 || cfg.MaxRounds <= 0:
		return nil, fmt.Errorf("fl: SL bad training parameters")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	flatten := cfg.Spec.FlattensInput()
	// Every user's model persists across rounds, trained on its cached
	// input view; one loss serves every (sequential) update.
	models := make([]*nn.Sequential, len(cfg.Devices))
	inputs := make([]*tensor.Tensor, len(cfg.Devices))
	for q, d := range cfg.Devices {
		data := cfg.UserData[q]
		if data == nil || data.N() == 0 {
			return nil, fmt.Errorf("fl: SL user %d has no data", q)
		}
		// Skip-if-equal, like the FL engine: cached-environment fleets are
		// shared across concurrent cells and must stay write-free here.
		if n := data.N(); d.NumSamples != n {
			d.NumSamples = n
		}
		models[q] = cfg.Spec.Build(rng)
		inputs[q] = modelInput(data, flatten)
	}
	loss := nn.NewSoftmaxCrossEntropy()

	// Deterministic evaluation panel.
	evalSet := rng.Perm(len(models))
	if cfg.EvalUsers > 0 && cfg.EvalUsers < len(evalSet) {
		evalSet = evalSet[:cfg.EvalUsers]
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	n := core.CohortSize(len(cfg.Devices), cfg.Fraction)

	var records []RoundRecord
	cumTime, cumEnergy := 0.0, 0.0
	for j := 0; j < cfg.MaxRounds; j++ {
		sel := rng.Perm(len(cfg.Devices))[:n]
		lossSum := 0.0
		var maxDelay, energy float64
		for _, q := range sel {
			lossSum += LocalUpdate(models[q], loss, inputs[q], cfg.UserData[q].Labels, nil, cfg.LR, cfg.LocalSteps, nil)
			d := cfg.Devices[q]
			delay := float64(cfg.LocalSteps) * d.ComputeDelayAtMax()
			if delay > maxDelay {
				maxDelay = delay
			}
			energy += float64(cfg.LocalSteps) * d.ComputeEnergy(d.FMax)
		}
		cumTime += maxDelay
		cumEnergy += energy
		rec := RoundRecord{
			Round:         j,
			Selected:      sel,
			Freqs:         sim.MaxFrequencies(pick(cfg.Devices, sel)),
			Delay:         maxDelay,
			Energy:        energy,
			ComputeEnergy: energy,
			CumTime:       cumTime,
			CumEnergy:     cumEnergy,
			TrainLoss:     lossSum / float64(n),
		}
		if j%evalEvery == 0 || j == cfg.MaxRounds-1 {
			accSum := 0.0
			for _, q := range evalSet {
				_, a := Evaluate(models[q], cfg.Test, flatten)
				accSum += a
			}
			rec.Evaluated = true
			rec.TestAccuracy = accSum / float64(len(evalSet))
		}
		records = append(records, rec)
	}
	return records, nil
}

// pick gathers devices at the given indices.
func pick(devs []*device.Device, idx []int) []*device.Device {
	out := make([]*device.Device, len(idx))
	for i, q := range idx {
		out[i] = devs[q]
	}
	return out
}
