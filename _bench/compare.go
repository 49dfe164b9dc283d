package main

import (
	"fmt"

	"helcfl/_bench/harness"
)

// runCompare prints one row per workload × end-to-end metric: both medians
// with their quartiles, the ratio with its base, and the verdict under the
// metric's bound from the BENCHMARK.json in the working directory.
func runCompare(basePath, newPath string) error {
	bench, err := harness.LoadBenchmark("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := harness.ReadReport(basePath)
	if err != nil {
		return err
	}
	next, err := harness.ReadReport(newPath)
	if err != nil {
		return err
	}
	if base.Quick || next.Quick {
		fmt.Println("WARNING: a quick-mode report is not comparable with anything")
	}
	fmt.Printf("base: %s (%s, commit %q, %d runs)\nnew:  %s (%s, commit %q, %d runs)\n",
		basePath, base.When, base.Machine.Commit, base.Repeat, newPath, next.When, next.Machine.Commit, next.Repeat)
	fmt.Printf("%-16s %-14s %-9s %-34s %-34s %-16s %6s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "new median [q1, q3]", "new/base", "bound", "verdict")
	regressed := 0
	for _, r := range harness.Compare(base, next, bench.EndToEnd) {
		fmt.Printf("%-16s %-14s %-9s %-34s %-34s %-16s %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit, cell(r.Base), cell(r.New),
			fmt.Sprintf("%.4f of base", r.Ratio), 100*r.Bound, r.Verdict)
		if r.Verdict == harness.Regressed {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload × metric pairs regressed", regressed)
	}
	return nil
}

func cell(s harness.Series) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3)
}
