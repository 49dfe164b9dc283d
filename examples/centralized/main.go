// Centralized: train the preset's model standalone — no federation — with
// the product's Eq. (3) full-batch gradient descent on the whole SynthCIFAR
// training set, and compare against the federated result on the same data.
// This is the "upper bound" FL aims for (Eq. 19: one FL round ≡ one
// centralized GD step on the selected users' data).
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

	// Centralized Eq. (3) on the full training set: 150 full-batch GD
	// steps at the federation's learning rate, reported every 30.
	rng := rand.New(rand.NewSource(2))
	model := env.Spec.Build(rng)
	loss := nn.NewSoftmaxCrossEntropy()
	x := env.Synth.Train.FlatX()
	labels := env.Synth.Train.Labels
	for step := 30; step <= 150; step += 30 {
		l := fl.LocalUpdate(model, loss, x, labels, nil, preset.LR, 30, nil)
		_, acc := fl.Evaluate(model, env.Synth.Test, true)
		fmt.Printf("step %3d  train loss %.3f  test acc %.1f%%\n", step, l, acc*100)
	}
	_, centralAcc := fl.Evaluate(model, env.Synth.Test, true)

	// Federated training with HELCFL on the same data, partitioned.
	res, err := helcfl.Train(preset, helcfl.IID, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncentralized GD (150 steps): %.1f%%\n", centralAcc*100)
	fmt.Printf("federated HELCFL (%d rounds): %.1f%%\n", preset.MaxRounds, res.BestAccuracy*100)
	fmt.Println("\nfederation pays an accuracy gap for never moving raw data — the gap")
	fmt.Println("HELCFL's selection keeps small by folding every user's data into")
	fmt.Println("training (Eq. 19) while scheduling around device heterogeneity.")
}
