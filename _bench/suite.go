package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"helcfl/_bench/harness"
	"helcfl/internal/tensor"
)

// runChild runs one workload pass in a fresh process — so peak RSS, GC state
// and the environment cache start clean — and parses its result line.
func runChild(name string, seed int64, secs float64, traced, quick bool) (*harness.RunResult, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", trace,
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	runErr := cmd.Run()
	wall := time.Since(t0).Seconds()

	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Println("  |", l)
	}
	var res harness.RunResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, wall, fmt.Errorf("%s (seed %d, trace %s): %w", name, seed, trace, runErr)
		}
		return nil, wall, fmt.Errorf("%s (seed %d, trace %s): no result line: %w", name, seed, trace, err)
	}
	// A child that printed a result but exited non-zero failed an output
	// check; its counts carry that.
	return &res, wall, nil
}

// runSuite runs the chosen workloads (all when only is empty), each in fresh
// child processes: repeat untraced runs and repeat traced runs on seeds
// seed … seed+repeat-1.
func runSuite(opt options) error {
	only, seed, secs, repeat, out, quick := opt.workload, opt.seed, opt.seconds, opt.repeat, opt.out, opt.quick
	chosen := workloads
	if only != "" {
		w, ok := lookupWorkload(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		chosen = []workload{w}
	}
	if repeat < 1 {
		repeat = 1
	}
	machine := harness.ThisMachine()
	machine.TensorWorkers = tensor.Workers()
	// Best effort: a checkout need not be a git repository.
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		machine.Commit = strings.TrimSpace(string(rev))
	}
	report := &harness.Report{
		Machine: machine,
		When:    time.Now().UTC().Format(time.RFC3339),
		Seed:    seed, Seconds: int(secs), Repeat: repeat, Quick: quick,
	}

	failed := 0
	for _, w := range chosen {
		wr := harness.WorkloadReport{
			Name: w.name, Correct: true,
			EndToEnd: map[string]harness.Series{}, PerLayer: map[string]harness.Series{},
		}
		values := map[bool]map[string][]float64{false: {}, true: {}}
		for _, traced := range []bool{false, true} {
			for i := 0; i < repeat; i++ {
				s := seed + int64(i)
				fmt.Printf("== %s seed=%d trace=%v\n", w.name, s, traced)
				res, wall, err := runChild(w.name, s, secs, traced, quick)
				if err != nil {
					return err
				}
				wr.Correct = wr.Correct && res.Correct
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				if !traced {
					wr.Seeds = append(wr.Seeds, s)
					wr.WallS = append(wr.WallS, wall)
				}
				for name, v := range res.Metrics {
					values[traced][name] = append(values[traced][name], v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = harness.NewSeries(d.unit, values[false][d.name])
		}
		for _, d := range perLayer {
			wr.PerLayer[d.name] = harness.NewSeries(d.unit, values[true][d.name])
		}
		failed += wr.Failed
		report.Workloads = append(report.Workloads, wr)
	}

	printSuite(report)
	if out != "" {
		if err := harness.WriteReport(out, report); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	if failed > 0 {
		return fmt.Errorf("%d output checks failed", failed)
	}
	return nil
}

// printSuite prints every end-to-end metric of every workload: median,
// quartiles, the spread the acceptance rule bounds, and the sample count.
func printSuite(r *harness.Report) {
	label := ""
	if r.Quick {
		label = " — QUICK MODE, numbers not comparable"
	}
	fmt.Printf("\n%s, %s/%s, %s, nproc=%d GOMAXPROCS=%d tensor.Workers=%d commit=%q%s\n",
		r.Machine.GoVersion, r.Machine.GOOS, r.Machine.GOARCH, r.Machine.CPUModel,
		r.Machine.NumCPU, r.Machine.GOMAXPROCS, r.Machine.TensorWorkers, r.Machine.Commit, label)
	for _, w := range r.Workloads {
		fmt.Printf("\n%s: ops_attempted=%d ops_failed=%d, untraced wall %.1fs median over %d runs\n",
			w.Name, w.Attempted, w.Failed, harness.Median(w.WallS), len(w.WallS))
		fmt.Printf("  %-16s %-9s %14s %14s %14s %8s %3s\n", "metric", "unit", "median", "q1", "q3", "spread", "n")
		for _, d := range endToEnd {
			s := w.EndToEnd[d.name]
			fmt.Printf("  %-16s %-9s %14.6g %14.6g %14.6g %7.2f%% %3d\n", d.name, s.Unit, s.Median, s.Q1, s.Q3, 100*s.Spread, len(s.Values))
		}
	}
}
