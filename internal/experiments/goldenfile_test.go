package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"helcfl/internal/metrics"
)

// Satellite: golden-file JSON regression for the experiment presets. The
// whole pipeline is deterministic for a fixed (preset, setting, seed), and
// Go's JSON encoder prints float64s in shortest round-trip form, so the
// serialized trajectories are an exact fingerprint of the system's numeric
// behaviour. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenFile -update
//
// Caveat: the goldens pin amd64-style strict float64 arithmetic; an
// architecture whose compiler fuses multiply-adds (FMA) could legitimately
// differ in the last ulp. The Go spec only permits fusing within a single
// expression — the nn kernels keep rounding explicit — but if a golden ever
// fails on a new architecture with ulp-level diffs, suspect FMA first.

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenPreset is Tiny shrunk to golden-test scale: big enough to exercise
// selection decay, small enough to run all five schemes in well under a
// second.
func goldenPreset() Preset {
	p := Tiny()
	p.Name = "golden"
	p.Users = 8
	p.TrainN = 240
	p.TestN = 120
	p.MaxRounds = 10
	p.EvalEvery = 2
	p.Hidden = []int{16}
	p.SLEvalUsers = 4
	return p
}

// goldenCurve is the serialized form of one scheme's trajectory.
type goldenCurve struct {
	Scheme string          `json:"scheme"`
	Points []metrics.Point `json:"points"`
}

func toGoldenCurves(r *Fig2Result) []goldenCurve {
	out := make([]goldenCurve, 0, len(SchemeOrder))
	for _, scheme := range SchemeOrder { // fixed order: maps don't serialize stably
		c := r.Curve(scheme)
		out = append(out, goldenCurve{Scheme: scheme, Points: c.Points})
	}
	return out
}

// checkGolden marshals got and compares it byte-for-byte against
// testdata/<name>.golden.json, rewriting the file under -update.
func checkGolden(t *testing.T, name string, got interface{}) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", name+".golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(data))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s drifted from golden; rerun with -update if the change is deliberate.\n got: %s\nwant: %s",
			path, data, want)
	}
}

// TestGoldenFileFig2 pins the full five-scheme Fig. 2 comparison in both
// data settings at one seed.
func TestGoldenFileFig2(t *testing.T) {
	for _, setting := range []Setting{IID, NonIID} {
		setting := setting
		t.Run(string(setting), func(t *testing.T) {
			res, err := AssembleFig2(setting, runCells(t, Fig2Cells(goldenPreset(), setting, 3)))
			if err != nil {
				t.Fatal(err)
			}
			name := "fig2_iid"
			if setting == NonIID {
				name = "fig2_noniid"
			}
			checkGolden(t, name, toGoldenCurves(res))
		})
	}
}

// TestGoldenFileExtension pins the loss-aware λ-sweep extension (λ=0 is the
// paper's scheduler, so the baseline column doubles as a second fingerprint
// of the core pipeline).
func TestGoldenFileExtension(t *testing.T) {
	lambdas := normalizeLambdas([]float64{0.5})
	ext, err := AssembleLossAwareExtension(goldenPreset(), IID, lambdas, runCells(t, LossAwareCells(goldenPreset(), IID, 3, lambdas)))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "extension_iid", ext)
}
