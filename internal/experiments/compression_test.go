package experiments

import (
	"strings"
	"testing"

	"helcfl/internal/compress"
)

func TestCompressionAblation(t *testing.T) {
	cs := DefaultCompressors()
	runs, out := runStudy[compressRun](t)(CompressionPlan(Tiny(), IID, 1, cs), nil)
	if len(runs) != 3 {
		t.Fatalf("variants = %d", len(runs))
	}
	baseIdx, topkIdx := -1, -1
	for i, c := range cs {
		switch {
		case c.Name() == "none":
			baseIdx = i
		case strings.HasPrefix(c.Name(), "topk"):
			topkIdx = i
		}
	}
	if baseIdx < 0 || topkIdx < 0 {
		t.Fatalf("missing variants in %v", cs)
	}
	base, topk := runs[baseIdx], runs[topkIdx]
	// Compression shrinks uploads (ratio > 1) and therefore total delay.
	if topk.Ratio <= 2 {
		t.Fatalf("top-k ratio %g too small", topk.Ratio)
	}
	if topk.Run.Res.TotalTime >= base.Run.Res.TotalTime {
		t.Fatalf("top-k total delay %g not below fp32 %g", topk.Run.Res.TotalTime, base.Run.Res.TotalTime)
	}
	// The paper's claim: compression sacrifices accuracy relative to the
	// lossless uploads HELCFL schedules.
	if topk.Run.Curve.Best() >= base.Run.Curve.Best() {
		t.Fatalf("top-k best %g not below fp32 %g", topk.Run.Curve.Best(), base.Run.Curve.Best())
	}
	// All variants still train to useful accuracy.
	for i, r := range runs {
		if r.Run.Curve.Best() < 0.5 {
			t.Fatalf("%s: accuracy %g collapsed", cs[i].Name(), r.Run.Curve.Best())
		}
	}
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
	runs, _ := runStudy[compressRun](t)(CompressionPlan(p, IID, 2, cs), nil)
	// A 20x smaller upload must shorten the (upload-containing) rounds.
	if runs[1].Run.Res.TotalTime >= runs[0].Run.Res.TotalTime {
		t.Fatalf("compressed run not faster: %g vs %g", runs[1].Run.Res.TotalTime, runs[0].Run.Res.TotalTime)
	}
}
