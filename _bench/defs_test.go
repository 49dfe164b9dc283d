package main

import (
	"regexp"
	"testing"

	"helcfl/_bench/harness"
)

// BENCHMARK.json is written by hand and the metric tables in defs.go by
// hand; this keeps them saying the same thing, and keeps the file inside the
// limits its reader enforces.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b, err := harness.LoadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "_bench" {
		t.Errorf("paths = %v, want [_bench]", b.Paths)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, b.Workloads[i].Name, w.name)
		}
		if n := len(b.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %q: why has %d characters, want 1–200", w.name, n)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	match := func(kind string, got []harness.MetricDef, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s metric %q [%s]: name or unit outside the allowed characters", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("metric name %q used twice", g.Name)
			}
			seen[g.Name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, g.Name, g.Better)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %v outside (0, 0.25]", kind, g.Name, g.Bound)
			}
			if !bounded && g.Bound != 0 {
				t.Errorf("%s metric %q has a bound", kind, g.Name)
			}
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd, true)
	match("per_layer", b.PerLayer, perLayer, false)
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	var setup *harness.MetricDef
	for i := range b.EndToEnd {
		if b.EndToEnd[i].Name == "setup_s" {
			setup = &b.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("end_to_end needs setup_s in s, lower is better; got %+v", setup)
	}
}

// Every workload's smoke run must pass its own output checks and report
// every end-to-end metric as a positive number.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about two seconds each")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, _, err := runOne(w, 1, quickSeconds, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in %q, want %q", w.name, traced, d.name, v.Unit, d.unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v.Value)
				}
			}
		}
	}
}
