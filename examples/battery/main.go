// Battery: give every device a finite energy budget — the paper's Section I
// motivation ("energy of user devices is quickly exhausted or even device
// shutdown occurs") — and watch how each scheduling scheme spends the
// fleet's lifetime. DVFS (Algorithm 3) stretches it; FedCS burns out its
// fixed fast cohort and halts.
//
//	go run ./examples/battery
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"helcfl"
	"helcfl/internal/experiments"
	"helcfl/internal/grid"
)

func main() {
	preset := helcfl.TinyPreset()

	// Each device gets a battery worth about six max-frequency selections.
	// A study is a Plan: run its cells on every core, then render the
	// fixed-index results as the campaign table.
	plan, err := experiments.BatteryPlan(preset, helcfl.IID, 1, 6)
	if err != nil {
		log.Fatal(err)
	}
	res, err := (&grid.Runner{}).Run(context.Background(), plan.Cells)
	if err != nil {
		log.Fatal(err)
	}
	if err := plan.Render(res, experiments.Output{W: os.Stdout}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("HELCFL finishes the full campaign: Algorithm 3 spends roughly half")
	fmt.Println("the compute energy per selection, so the same batteries last ~2x the")
	fmt.Println("rounds of the no-DVFS variant. FedCS exhausts its fast cohort early")
	fmt.Println("and halts with its accuracy ceiling intact.")
}
