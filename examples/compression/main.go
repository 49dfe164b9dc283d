// Compression: run the paper's Section I rivals — top-k sparsification and
// uniform quantization of model uploads — through the HELCFL system and
// compare them against lossless fp32 uploads. Compression shrinks C_model
// (Eq. 7) and thus round delay, but pays in accuracy; HELCFL's position is
// that scheduling attacks the same bottleneck without that sacrifice.
//
//	go run ./examples/compression
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"helcfl"
	"helcfl/internal/compress"
	"helcfl/internal/experiments"
	"helcfl/internal/grid"
)

func main() {
	preset := helcfl.TinyPreset()

	compressors := []compress.Compressor{
		compress.None{},
		compress.NewTopK(0.10),
		compress.NewTopK(0.02),
		compress.NewUniform(8),
		compress.NewUniform(4),
	}

	// A study is a Plan: one training cell per compressor, run on every
	// core, then rendered as one table.
	plan := experiments.CompressionPlan(preset, helcfl.IID, 1, compressors)
	res, err := (&grid.Runner{}).Run(context.Background(), plan.Cells)
	if err != nil {
		log.Fatal(err)
	}
	if err := plan.Render(res, experiments.Output{W: os.Stdout}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-k trades accuracy for wall-clock; low-bit quantization degrades")
	fmt.Println("once the grid becomes coarse. HELCFL keeps fp32 accuracy and recovers")
	fmt.Println("wall-clock through user selection and DVFS instead.")
}
