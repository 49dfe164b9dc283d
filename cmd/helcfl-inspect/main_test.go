package main

import (
	"os"
	"path/filepath"
	"testing"

	"helcfl/internal/obs"
	"helcfl/internal/trace"
)

func TestInspectRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewSink(f)
	sink.OnEvent(obs.RunStartEvent{Scheme: "HELCFL"})
	sink.OnEvent(obs.RoundEndEvent{Round: 0, DelaySec: 1, EnergyJ: 2, ComputeJ: 1.5, CumTimeSec: 1, CumEnergyJ: 2,
		Evaluated: true, TestAccuracy: 0.5})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := run([]string{path}); err != nil {
		t.Fatal(err)
	}
	if err := run(nil); err == nil {
		t.Fatal("no args must error")
	}
	if err := run([]string{filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Fatal("missing file must error")
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty}); err == nil {
		t.Fatal("empty trace must error")
	}
	invalid := filepath.Join(dir, "invalid.jsonl")
	f, err = os.Create(invalid)
	if err != nil {
		t.Fatal(err)
	}
	sink = trace.NewSink(f)
	sink.OnEvent(obs.RunStartEvent{Scheme: "HELCFL"})
	sink.OnEvent(obs.RoundEndEvent{Round: 0, DelaySec: 0, EnergyJ: 2, CumEnergyJ: 2})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{invalid}); err == nil {
		t.Fatal("a trace that fails trace.Validate must error")
	}
}
