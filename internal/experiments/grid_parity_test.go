package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"helcfl/internal/grid"
)

// renderAll captures a plan's rendered stream and artifacts.
func renderAll(t *testing.T, plan *Plan, res []any) (string, map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	arts := map[string]string{}
	err := plan.Render(res, Output{
		W: &buf,
		WriteArtifact: func(name string, data []byte) error {
			arts[name] = string(data)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	return buf.String(), arts
}

// TestParallelMatchesSerialForEveryExperiment is the grid's core guarantee:
// for every registered experiment, running the plan on one worker and on
// eight produces identical raw results, rendered bytes, and artifacts.
func TestParallelMatchesSerialForEveryExperiment(t *testing.T) {
	p := goldenPreset()
	opt := Options{Seeds: 2}
	for _, def := range Registry() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			serialPlan, err := def.Plan(p, 3, opt)
			if err != nil {
				t.Fatal(err)
			}
			parallelPlan, err := def.Plan(p, 3, opt)
			if err != nil {
				t.Fatal(err)
			}
			serialRes, err := (&grid.Runner{Parallel: 1}).Run(context.Background(), serialPlan.Cells)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			parRes, err := (&grid.Runner{Parallel: 8}).Run(context.Background(), parallelPlan.Cells)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if !reflect.DeepEqual(serialRes, parRes) {
				t.Fatal("parallel raw results differ from serial")
			}
			serialOut, serialArts := renderAll(t, serialPlan, serialRes)
			parOut, parArts := renderAll(t, parallelPlan, parRes)
			if serialOut != parOut {
				t.Fatalf("rendered output differs:\nserial:\n%s\nparallel:\n%s", serialOut, parOut)
			}
			if !reflect.DeepEqual(serialArts, parArts) {
				t.Fatalf("artifacts differ: %v vs %v", serialArts, parArts)
			}
			if len(serialOut) == 0 {
				t.Fatal("experiment rendered nothing")
			}
			checkRenderGolden(t, def.Name, serialPlan, serialOut, serialArts)
		})
	}
}

// checkRenderGolden pins what an experiment prints: its ordered cell keys,
// its rendered stream and its artifacts, byte for byte, against
// testdata/render_<name>.golden (rewritten under -update).
func checkRenderGolden(t *testing.T, name string, plan *Plan, out string, arts map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("== cells\n")
	for _, c := range plan.Cells {
		b.WriteString(c.Key() + "\n")
	}
	b.WriteString("== render\n" + out)
	names := make([]string, 0, len(arts))
	for n := range arts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString("== artifact " + n + "\n" + arts[n])
	}
	got := b.String()
	path := filepath.Join("testdata", "render_"+name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden; rerun with -update if the change is deliberate.\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestAllPlanDedupsSharedCells pins the composition properties of "all":
// unique keys throughout, the Fig. 2 HELCFL cell shared by fig2, table1,
// fig3 and the headline appears exactly once, and the slack-rich Fig. 3
// regime (historically dropped by runAll) is present.
func TestAllPlanDedupsSharedCells(t *testing.T) {
	p := Tiny()
	def, ok := LookupExperiment("all")
	if !ok {
		t.Fatal("no all experiment")
	}
	plan, err := def.Plan(p, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Validate(plan.Cells); err != nil {
		t.Fatalf("composed plan has invalid cells: %v", err)
	}
	helcflIID, slackRich := 0, 0
	for _, c := range plan.Cells {
		if c.Experiment == "train" && c.Scheme == "HELCFL" && c.Variant == "" && c.Setting == string(IID) && c.Preset == p.Name {
			helcflIID++
		}
		if c.Preset == SlackRich(p).Name {
			slackRich++
		}
	}
	if helcflIID != 1 {
		t.Fatalf("shared HELCFL IID train cell appears %d times, want 1", helcflIID)
	}
	if slackRich != len(fig3Schemes) {
		t.Fatalf("slack-rich cells = %d, want %d", slackRich, len(fig3Schemes))
	}
	// The naive concatenation of the sub-plans is far larger than the
	// deduplicated grid (table1 and the headline reuse fig2/fig3 cells).
	naive := 0
	for _, name := range []string{"fig1", "fig2", "table1", "fig3", "ablation"} {
		sub, ok := LookupExperiment(name)
		if !ok {
			t.Fatalf("no %s experiment", name)
		}
		subPlan, err := sub.Plan(p, 1, Options{})
		if err != nil {
			t.Fatalf("%s plan: %v", name, err)
		}
		naive += len(subPlan.Cells)
	}
	if len(plan.Cells) >= naive {
		t.Fatalf("composed plan has %d cells; expected dedup below %d", len(plan.Cells), naive)
	}
}

// TestRegistryNamesAreUniqueAndResolvable guards the CLI dispatch table.
func TestRegistryNamesAreUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, def := range Registry() {
		if def.Name == "" {
			t.Fatalf("definition %+v missing name", def)
		}
		if seen[def.Name] {
			t.Fatalf("duplicate experiment name %q", def.Name)
		}
		seen[def.Name] = true
		got, ok := LookupExperiment(def.Name)
		if !ok || got.Name != def.Name {
			t.Fatalf("LookupExperiment(%q) = %+v, %v", def.Name, got, ok)
		}
	}
	if _, ok := LookupExperiment("nope"); ok {
		t.Fatal("unknown name must not resolve")
	}
}

// TestSeedsPlanValidatesCount preserves the CLI's historical validation.
func TestSeedsPlanValidatesCount(t *testing.T) {
	def, ok := LookupExperiment("seeds")
	if !ok {
		t.Fatal("no seeds experiment")
	}
	if _, err := def.Plan(Tiny(), 1, Options{Seeds: 0}); err == nil {
		t.Fatal("zero seed count must error")
	}
}
