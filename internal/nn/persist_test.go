package nn

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadModelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.helcfl")
	spec := ModelSpec{Kind: "mlp", InC: 2, H: 4, W: 4, Classes: 3, Hidden: []int{8}}
	m := spec.Build(rand.New(rand.NewSource(1)))
	if err := SaveModel(path, spec, m); err != nil {
		t.Fatal(err)
	}
	spec2, m2, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec2.Kind != spec.Kind || spec2.Classes != spec.Classes || len(spec2.Hidden) != 1 {
		t.Fatalf("spec round trip: %+v", spec2)
	}
	a, b := m.GetFlatParams(), m2.GetFlatParams()
	if len(a) != len(b) {
		t.Fatal("param count changed")
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 { // float32 wire precision
			t.Fatalf("param %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestLoadModelRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.helcfl")

	if _, _, err := LoadModel(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file must error")
	}
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadModel(path); err == nil {
		t.Fatal("short file must error")
	}
	// Valid save, then corrupt the magic.
	spec := ModelSpec{Kind: "logistic", InC: 1, H: 2, W: 2, Classes: 2}
	m := spec.Build(rand.New(rand.NewSource(2)))
	if err := SaveModel(path, spec, m); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	raw[0] ^= 0xFF
	_ = os.WriteFile(path, raw, 0o644)
	if _, _, err := LoadModel(path); err == nil {
		t.Fatal("bad magic must error")
	}
	// Corrupt header length.
	if err := SaveModel(path, spec, m); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	raw[4] = 0xFF
	raw[5] = 0xFF
	_ = os.WriteFile(path, raw, 0o644)
	if _, _, err := LoadModel(path); err == nil {
		t.Fatal("truncated header must error")
	}
	// Headers that decode but that Build would panic on.
	for _, bad := range []ModelSpec{
		{Kind: "resnet", InC: 1, H: 2, W: 2, Classes: 2},
		{Kind: "mlp", InC: 1, H: 2, W: 2, Classes: 2, Hidden: []int{-3}},
		{Kind: "logistic", InC: 1, H: 2, W: 2, Classes: 0},
		{Kind: "logistic", InC: 0, H: 2, W: 2, Classes: 2},
		{Kind: "squeezenet-mini", InC: 3, H: -8, W: 8, Classes: 10},
	} {
		if err := SaveModel(path, bad, m); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadModel(path); err == nil {
			t.Fatalf("header %+v must error", bad)
		}
	}
}
