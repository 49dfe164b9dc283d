package experiments

import (
	"context"
	"reflect"
	"testing"

	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/obs/span"
)

// carriesFLResult reports whether a cell result holds an *fl.Result
// anywhere in its fields (schemeRun.Res, batteryRun.Run.Res, …).
func carriesFLResult(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return false
		}
		if v.Type() == reflect.TypeOf(&fl.Result{}) {
			return true
		}
		return carriesFLResult(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if carriesFLResult(v.Field(i)) {
				return true
			}
		}
	}
	return false
}

// TestEveryCellIsTraced pins the cell-level cost attribution: on a traced
// grid every cell gets exactly one "cell.run" span (and one
// "cell.envbuild"), and every cell that trains an engine nests that
// engine's "fl.run" under its "cell.run".
func TestEveryCellIsTraced(t *testing.T) {
	for _, name := range []string{"ablation", "battery"} {
		t.Run(name, func(t *testing.T) {
			def, _ := LookupExperiment(name)
			plan, err := def.Plan(goldenPreset(), 3, Options{})
			if err != nil {
				t.Fatal(err)
			}
			col := &span.Collector{}
			rec := span.NewRecorder(1, span.Options{Capacity: 1, Exporter: col})
			res, err := (&grid.Runner{Parallel: 2}).Run(span.NewContext(context.Background(), rec), plan.Cells)
			if err != nil {
				t.Fatal(err)
			}
			recs := col.Snapshot()
			children := map[uint64]map[string][]uint64{} // parent -> name -> span IDs
			cellOf := map[string]uint64{}                // cell key -> grid.cell span ID
			for _, r := range recs {
				if children[r.Parent] == nil {
					children[r.Parent] = map[string][]uint64{}
				}
				children[r.Parent][r.Name] = append(children[r.Parent][r.Name], r.Span)
				if r.Name == "grid.cell" {
					key, _ := r.StrAttr("key")
					cellOf[key] = r.Span
				}
			}
			if len(cellOf) != len(plan.Cells) {
				t.Fatalf("%d grid.cell spans for %d cells", len(cellOf), len(plan.Cells))
			}
			for i, c := range plan.Cells {
				kids := children[cellOf[c.Key()]]
				if len(kids["cell.run"]) != 1 || len(kids["cell.envbuild"]) != 1 {
					t.Errorf("%s: %d cell.run and %d cell.envbuild spans, want 1 each",
						c.Key(), len(kids["cell.run"]), len(kids["cell.envbuild"]))
					continue
				}
				if carriesFLResult(reflect.ValueOf(res[i])) && len(children[kids["cell.run"][0]]["fl.run"]) == 0 {
					t.Errorf("%s: carries an fl.Result but has no fl.run under its cell.run", c.Key())
				}
			}
		})
	}
}
