// Command _bench is the repository's benchmark: six closed-loop workloads
// that call into the system's exported functions from outside, six
// end-to-end metrics from an untraced pass and a per-layer ledger from a
// separate traced pass. See README.md in this directory.
//
// One run (what BENCHMARK.json's command does):
//
//	_bench --workload fl_mlp --seed 1 --seconds 15 --trace 0
//
// measures one workload in this process and prints, as the last line of
// standard output, {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
//
// A suite (no -workload, or -repeat/-out given) runs every chosen workload
// in fresh child processes, untraced then traced, -repeat times on seeds
// seed, seed+1, …, and writes medians, quartiles and spreads to -out.
// -compare a.json b.json prints the table performance changes paste.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"helcfl/_bench/harness"
	"helcfl/internal/obs/span"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// quickSeconds bounds a smoke run's timed loop; with the smoke sizes every
// workload finishes in about two seconds.
const quickSeconds = 1

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	out      string
	spans    string
	quick    bool
	compare  bool
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run (default: all, as a suite)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of every generated input; the only input that changes the data")
	flag.Float64Var(&opt.seconds, "seconds", defaultSeconds, "how long an untraced run measures")
	flag.IntVar(&opt.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.IntVar(&opt.repeat, "repeat", 1, "suite: runs per workload and pass, on consecutive seeds")
	flag.StringVar(&opt.out, "out", "", "suite: write the report to this file")
	flag.StringVar(&opt.spans, "spans", "", "traced run: write the recorded spans to this file as JSONL when the run ends")
	flag.BoolVar(&opt.quick, "quick", false, "smoke mode: same code paths and checks, sizes cut down, numbers not comparable")
	flag.BoolVar(&opt.compare, "compare", false, "compare two suite reports under the bounds of ./BENCHMARK.json: -compare base.json new.json")
	flag.Parse()
	if err := run(opt, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(opt options, args []string) error {
	if opt.compare {
		if len(args) != 2 {
			return fmt.Errorf("usage: -compare base.json new.json")
		}
		return runCompare(args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if opt.quick {
		opt.seconds = quickSeconds
	}
	if opt.workload == "" || opt.repeat > 1 || opt.out != "" {
		return runSuite(opt)
	}
	w, ok := lookupWorkload(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	res, recs, err := runOne(w, opt.seed, opt.seconds, opt.trace != 0, opt.quick)
	if err != nil {
		return err
	}
	if opt.spans != "" {
		if err := writeSpans(opt.spans, recs); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d output checks failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// writeSpans stores the traced pass's in-memory spans as JSONL, the format
// helcfl-inspect reads.
func writeSpans(path string, recs []span.Rec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	j := span.NewJSONL(f)
	for _, r := range recs {
		j.ExportSpan(r)
	}
	if err := j.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOne measures one workload in this process and prints every metric by
// name with its unit. A traced run also returns its spans.
func runOne(w workload, seed int64, secs float64, traced, quick bool) (*harness.RunResult, []span.Rec, error) {
	o := &outcome{}
	defs := endToEnd
	var m metrics
	var recs []span.Rec
	t0, cpu0 := time.Now(), harness.CPUSeconds()
	if traced {
		defs = perLayer
		m = metrics{}
		var err error
		if recs, err = w.traced(seed, quick, o, m); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		procMetrics(m, t0, cpu0)
	} else {
		var err error
		if m, err = runUntraced(w, seed, secs, quick, o); err != nil {
			return nil, nil, err
		}
	}
	res := &harness.RunResult{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]harness.Value, len(defs)),
	}
	label := ""
	if quick {
		label = "  (quick: not comparable)"
	}
	fmt.Printf("%s seed=%d trace=%v wall=%.1fs ops_attempted=%d ops_failed=%d%s\n", w.name, seed, traced, time.Since(t0).Seconds(), o.attempted, o.failed, label)
	for _, d := range defs {
		res.Metrics[d.name] = harness.Value{Value: m[d.name], Unit: d.unit}
		fmt.Printf("  %-40s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	return res, recs, nil
}
