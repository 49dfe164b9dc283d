package experiments

import (
	"math"
	"reflect"
	"testing"

	"helcfl/internal/fl"
	"helcfl/internal/metrics"
	"helcfl/internal/sim"
	"helcfl/internal/stats"
)

// sampleResult exercises every field a Render fold can read, with
// bit-pattern-sensitive values (negative zero, tiny subnormal-ish floats)
// so the round trip proves gob keeps float64 payloads exact.
func sampleResult() *fl.Result {
	return &fl.Result{
		Scheme: "HELCFL",
		Records: []fl.RoundRecord{
			{
				Round: 0, Selected: []int{3, 1, 4}, Freqs: []float64{1e9, 2e9, math.Copysign(0, -1)},
				Delay: 1.25, Energy: 3.75, ComputeEnergy: 2.5, UploadEnergy: 1.25,
				Slack: 0, CumTime: 1.25, CumEnergy: 3.75,
				TrainLoss: 0.6931471805599453, Failed: 1, AliveDevices: 16,
				Evaluated: true, TestLoss: 2.302585092994046, TestAccuracy: 0.1015625,
			},
			{Round: 1, Delay: 0x1p-40, CumTime: 1.25 + 0x1p-40, AliveDevices: 15},
		},
		ModelBits:         217120,
		FinalAccuracy:     0.421875,
		BestAccuracy:      0.4375,
		TotalTime:         12.625,
		TotalEnergy:       41.0,
		StoppedByDeadline: true,
		HaltedByDeadFleet: true,
	}
}

func TestEncodeCellResultRoundTripsEveryRegisteredType(t *testing.T) {
	run := schemeRun{
		Curve: metrics.Curve{Scheme: "HELCFL", Points: []metrics.Point{
			{Round: 0, Time: 1.25, Energy: 3.75, Accuracy: 0.1015625},
			{Round: 2, Time: 4.5, Energy: 9.25, Accuracy: 0.25},
		}},
		Res: sampleResult(),
	}
	rr := sim.RoundResult{
		Users:    []sim.UserRound{{User: 2, Freq: 1.5e9, ComputeDelay: 0.75, UploadDelay: 0.25}},
		Makespan: 1.0625, Eq10Delay: 1.0, TotalEnergy: 5.5, TotalSlack: 0.125,
	}
	cases := []any{
		run,
		modelRun{Params: 10250, Bits: 328000, Run: run},
		batteryRun{CapacityJ: 120.5, Fleet: 16, Run: run},
		compressRun{Ratio: 0.1, Run: run},
		partitionRun{MeanLabels: 3.5, Run: run},
		fairnessRun{Jain: 0.875, Coverage: 0.9375},
		clampRun{Violations: 2, WorstBelowPct: 1.5, WorstAbovePct: 0.25},
		rbRun{Makespan: []stats.Summary{{N: 60, Mean: 1.5, Std: 0.25, Min: 1.0, Max: 2.0}}},
		&Fig1Demo{MaxFreq: rr, WithDVFS: rr},
		&Fig3Result{Setting: IID, Targets: []float64{0.6, 0.7}, WithDVFS: []float64{10, 20},
			WithoutDVFS: []float64{15, 30}, Reached: []bool{true, false}, ReductionPct: []float64{33.3, 0}},
	}
	for _, v := range cases {
		data, err := EncodeCellResult(v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		got, err := DecodeCellResult(data)
		if err != nil {
			t.Fatalf("decode %T: %v", v, err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(v) {
			t.Fatalf("round trip changed type: %T -> %T", v, got)
		}
		want := v
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T round trip mismatch:\n got %+v\nwant %+v", v, got, want)
		}
	}
}

func TestEncodeCellResultStripsModelKeepsRecordsBitExact(t *testing.T) {
	in := schemeRun{Res: sampleResult()}
	// A live training result carries the final model; the wire form must
	// drop it without touching anything an assembler reads.
	in.Res.Model = nil // sampleResult has none; this documents the contract
	data, err := EncodeCellResult(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeCellResult(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := out.(schemeRun)
	if got.Res.Model != nil {
		t.Fatal("decoded result should have nil Model")
	}
	// Bit-exactness: compare float bit patterns, not just values, so a
	// codec that normalized slice elements or rounded through text would
	// fail here. Negative zero in a []float64 element must survive.
	if !math.Signbit(got.Res.Records[0].Freqs[2]) {
		t.Error("negative zero slice element lost its sign bit")
	}
	if got.Res.Records[1].Delay != 0x1p-40 {
		t.Errorf("tiny delay changed: %x", got.Res.Records[1].Delay)
	}
	if !reflect.DeepEqual(got.Res, in.Res) {
		t.Errorf("records mismatch:\n got %+v\nwant %+v", got.Res, in.Res)
	}
}

// TestGobNormalizesNegativeZeroStructFields pins the one lossy corner of
// the wire codec (see the EncodeCellResult doc comment): gob omits struct
// fields equal to zero, and -0.0 == 0, so a negative-zero struct field
// decodes as +0. If a future gob or codec change alters this, the doc
// contract must be revisited.
func TestGobNormalizesNegativeZeroStructFields(t *testing.T) {
	in := schemeRun{Res: &fl.Result{Records: []fl.RoundRecord{{Slack: math.Copysign(0, -1)}}}}
	data, err := EncodeCellResult(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeCellResult(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if math.Signbit(out.(schemeRun).Res.Records[0].Slack) {
		t.Fatal("gob now preserves -0 struct fields; update the codec contract docs")
	}
}

func TestLookupPreset(t *testing.T) {
	for _, name := range []string{"paper", "fast", "tiny"} {
		p, err := LookupPreset(name)
		if err != nil {
			t.Fatalf("LookupPreset(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("LookupPreset(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := LookupPreset("nope"); err == nil {
		t.Fatal("unknown preset should error")
	}
}
