package experiments

import (
	"strings"
	"testing"

	"helcfl/internal/compress"
)

func TestCompressionAblation(t *testing.T) {
	p := Tiny()
	cs := DefaultCompressors()
	ab, err := AssembleCompressionAblation(IID, cs, runCells(t, CompressionCells(p, IID, 1, cs)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Names) != 3 {
		t.Fatalf("variants = %d", len(ab.Names))
	}
	baseIdx, topkIdx := -1, -1
	for i, n := range ab.Names {
		switch {
		case n == "none":
			baseIdx = i
		case strings.HasPrefix(n, "topk"):
			topkIdx = i
		}
	}
	if baseIdx < 0 || topkIdx < 0 {
		t.Fatalf("missing variants in %v", ab.Names)
	}
	// Compression shrinks uploads (ratio > 1) and therefore total delay.
	if ab.Ratios[topkIdx] <= 2 {
		t.Fatalf("top-k ratio %g too small", ab.Ratios[topkIdx])
	}
	if ab.TimeSec[topkIdx] >= ab.TimeSec[baseIdx] {
		t.Fatalf("top-k total delay %g not below fp32 %g", ab.TimeSec[topkIdx], ab.TimeSec[baseIdx])
	}
	// The paper's claim: compression sacrifices accuracy relative to the
	// lossless uploads HELCFL schedules.
	if ab.Best[topkIdx] >= ab.Best[baseIdx] {
		t.Fatalf("top-k best %g not below fp32 %g", ab.Best[topkIdx], ab.Best[baseIdx])
	}
	// All variants still train to useful accuracy.
	for i := range ab.Names {
		if ab.Best[i] < 0.5 {
			t.Fatalf("%s: accuracy %g collapsed", ab.Names[i], ab.Best[i])
		}
	}
	out := ab.Render().String()
	if !strings.Contains(out, "topk") || !strings.Contains(out, "x") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestCompressionChangesCostModel(t *testing.T) {
	p := Tiny()
	p.MaxRounds = 6
	cs := []compress.Compressor{
		compress.None{},
		compress.NewTopK(0.05),
	}
	ab, err := AssembleCompressionAblation(IID, cs, runCells(t, CompressionCells(p, IID, 2, cs)))
	if err != nil {
		t.Fatal(err)
	}
	// A 20x smaller upload must shorten the (upload-containing) rounds.
	if ab.TimeSec[1] >= ab.TimeSec[0] {
		t.Fatalf("compressed run not faster: %g vs %g", ab.TimeSec[1], ab.TimeSec[0])
	}
}
