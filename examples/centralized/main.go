// Centralized: use the nn substrate standalone — no federation — to train
// the SqueezeNet-style CNN on SynthCIFAR with Adam and a cosine schedule,
// and compare against the federated result on the same data. This is the
// "upper bound" FL aims for (Eq. 19: one FL round ≡ one centralized GD
// step on the selected users' data).
//
//	go run ./examples/centralized
package main

import (
	"fmt"
	"log"
	"math/rand"

	"helcfl"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
)

func main() {
	preset := helcfl.TinyPreset()
	env, err := helcfl.BuildEnv(preset, helcfl.IID, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Centralized training on the full training set with Adam.
	rng := rand.New(rand.NewSource(2))
	model := env.Spec.Build(rng)
	loss := nn.NewSoftmaxCrossEntropy()
	opt := nn.NewAdam(0.01)
	sched := nn.CosineDecay{Base: 0.01, Floor: 0.001, Horizon: 150}
	x := env.Synth.Train.FlatX()
	labels := env.Synth.Train.Labels
	for step := 0; step < 150; step++ {
		opt.LR = sched.LR(step)
		model.ZeroGrads()
		l := loss.Forward(model.Forward(x, true), labels)
		model.BackwardParams(loss.Backward())
		opt.Step(model.Params(), model.Grads())
		if step%30 == 0 {
			_, acc := fl.Evaluate(model, env.Synth.Test, true)
			fmt.Printf("step %3d  lr %.4f  train loss %.3f  test acc %.1f%%\n",
				step, opt.LR, l, acc*100)
		}
	}
	_, centralAcc := fl.Evaluate(model, env.Synth.Test, true)

	// Federated training with HELCFL on the same data, partitioned.
	res, err := helcfl.Train(preset, helcfl.IID, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncentralized Adam (150 steps): %.1f%%\n", centralAcc*100)
	fmt.Printf("federated HELCFL (%d rounds): %.1f%%\n", preset.MaxRounds, res.BestAccuracy*100)
	fmt.Println("\nfederation pays an accuracy gap for never moving raw data — the gap")
	fmt.Println("HELCFL's selection keeps small by folding every user's data into")
	fmt.Println("training (Eq. 19) while scheduling around device heterogeneity.")
}
