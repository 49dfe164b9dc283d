package harness

import (
	"encoding/json"
	"fmt"
	"os"
)

// Value is one measured number with its unit, as a run prints it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// RunResult is the one JSON object a single run prints as the last line of
// its standard output.
type RunResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// MetricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics have
// none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadDef is one workload of BENCHMARK.json.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Benchmark mirrors BENCHMARK.json.
type Benchmark struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []MetricDef   `json:"end_to_end"`
	PerLayer   []MetricDef   `json:"per_layer"`
}

// LoadBenchmark reads a BENCHMARK.json.
func LoadBenchmark(path string) (*Benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return &b, nil
}

// Series is one metric over the runs of a suite.
type Series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3−Q1)/Median, the statistic the acceptance rule bounds.
	Spread float64 `json:"spread"`
}

// NewSeries summarizes values.
func NewSeries(unit string, values []float64) Series {
	q1, q2, q3 := Quartiles(values)
	return Series{Unit: unit, Values: values, Median: q2, Q1: q1, Q3: q3, Spread: Spread(values)}
}

// WorkloadReport is one workload's share of a suite.
type WorkloadReport struct {
	Name string `json:"name"`
	// Seeds lists the seed of each run, in run order.
	Seeds     []int64 `json:"seeds"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"ops_attempted"`
	Failed    int     `json:"ops_failed"`
	// WallS is the whole-process wall time of each untraced run.
	WallS    []float64         `json:"wall_s"`
	EndToEnd map[string]Series `json:"end_to_end"`
	PerLayer map[string]Series `json:"per_layer"`
}

// Report is what a suite writes to -out and what -compare reads.
type Report struct {
	Machine Machine `json:"machine"`
	When    string  `json:"when"`
	Seed    int64   `json:"seed"`
	Seconds int     `json:"seconds"`
	Repeat  int     `json:"repeat"`
	// Quick marks a smoke run: same code paths and checks, sizes cut down,
	// numbers not comparable with a full run's.
	Quick     bool             `json:"quick,omitempty"`
	Workloads []WorkloadReport `json:"workloads"`
}

// WriteReport stores a report as indented JSON.
func WriteReport(path string, r *Report) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadReport loads a report written by WriteReport.
func ReadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of a comparison row.
const (
	Improved    = "improved"
	WithinBound = "within bound"
	Regressed   = "regressed"
	// Unresolved: the runs of one side spread wider than the bound, so "no
	// change" cannot be told from a change of that size.
	Unresolved = "unresolved"
)

// Row compares one workload × end-to-end metric between a base report and a
// new one.
type Row struct {
	Workload, Metric, Unit string
	Base, New              Series
	// Ratio is New.Median / Base.Median; its base is the base report.
	Ratio   float64
	Bound   float64
	Verdict string
}

// worseBy returns by what share of the base median the new median is worse
// (negative when it is better).
func worseBy(def MetricDef, base, next float64) float64 {
	if base == 0 {
		return 0
	}
	d := (next - base) / base
	if def.Better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every new run reads better than every base run.
func allBetter(def MetricDef, base, next []float64) bool {
	if len(base) == 0 || len(next) == 0 {
		return false
	}
	b, n := Sorted(base), Sorted(next)
	if def.Better == "higher" {
		return n[0] > b[len(b)-1]
	}
	return n[len(n)-1] < b[0]
}

func verdict(def MetricDef, base, next Series) string {
	switch {
	case worseBy(def, base.Median, next.Median) > def.Bound:
		return Regressed
	case allBetter(def, base.Values, next.Values):
		return Improved
	case base.Spread > def.Bound || next.Spread > def.Bound:
		return Unresolved
	case -worseBy(def, base.Median, next.Median)*base.Median > base.Q3-base.Q1:
		return Improved
	}
	return WithinBound
}

// Compare builds one row per workload × end-to-end metric present in both
// reports, in the order of defs.
func Compare(base, next *Report, defs []MetricDef) []Row {
	byName := make(map[string]WorkloadReport, len(next.Workloads))
	for _, w := range next.Workloads {
		byName[w.Name] = w
	}
	var rows []Row
	for _, bw := range base.Workloads {
		nw, ok := byName[bw.Name]
		if !ok {
			continue
		}
		for _, def := range defs {
			bs, okB := bw.EndToEnd[def.Name]
			ns, okN := nw.EndToEnd[def.Name]
			if !okB || !okN {
				continue
			}
			row := Row{
				Workload: bw.Name, Metric: def.Name, Unit: def.Unit,
				Base: bs, New: ns, Bound: def.Bound, Verdict: verdict(def, bs, ns),
			}
			if bs.Median != 0 {
				row.Ratio = ns.Median / bs.Median
			}
			rows = append(rows, row)
		}
	}
	return rows
}
