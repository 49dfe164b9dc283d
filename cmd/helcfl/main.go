// Command helcfl regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	helcfl <experiment> [flags]
//
// Experiments are the entries of experiments.Registry() — grid campaigns
// run on a parallel worker pool; `helcfl` with no arguments lists them —
// plus three bespoke single-run commands:
//
//	trace  JSONL round telemetry for one scheme
//	train  train one scheme and save the global model to -model
//	eval   evaluate a saved model on a preset's test set
//
// Timing lives outside the CLI: `bash _bench/run.sh` (see _bench/README.md)
// is the one way anything in this repository is measured.
//
// Flags:
//
//	-preset        paper | fast | tiny      (default fast)
//	-seed          deterministic seed       (default 1)
//	-out           directory for CSV/JSONL  (default: none / stdout)
//	-parallel      grid worker count, 0 = GOMAXPROCS (grid experiments)
//	-setting       iid | noniid             (trace/train/eval)
//	-scheme        HELCFL | ClassicFL | FedCS | FEDL | HELCFL-noDVFS
//	-model         model file path          (train/eval)
//	-n             seed count               (seeds)
//	-metrics-addr  serve live /metrics, /healthz and /debug/pprof on this
//	               address for the duration of the run (e.g. :8080)
//	-trace-out     stream phase spans as JSONL to this file (see
//	               docs/OBSERVABILITY.md; render with helcfl-inspect trace)
//	-flightrec-out directory for flight-recorder dumps, written on panic,
//	               SIGQUIT, and at the end of the run
//	-v             progress lines on stderr (per cell for grid experiments,
//	               per round for trace/train)
//
// Arguments after the flags are an error, not ignored.
//
// SIGINT/SIGTERM cancel the running campaign: in-flight cells finish,
// unstarted cells are skipped, and the command exits nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"helcfl/internal/experiments"
	"helcfl/internal/fl"
	"helcfl/internal/grid"
	"helcfl/internal/metrics"
	"helcfl/internal/nn"
	"helcfl/internal/obs"
	"helcfl/internal/obs/flight"
	"helcfl/internal/obs/span"
	"helcfl/internal/trace"
)

// stderr is swappable so tests can capture progress output.
var stderr io.Writer = os.Stderr

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "helcfl:", err)
		os.Exit(1)
	}
}

// commandNames lists everything args[0] may be: the registry's experiments
// in display order, then the bespoke single-run commands. Usage and the
// unknown-experiment error are built from it, so a new Definition shows up
// in both without an edit here.
func commandNames() string {
	var names []string
	for _, def := range experiments.Registry() {
		names = append(names, def.Name)
	}
	return strings.Join(append(names, "trace", "train", "eval"), "|")
}

func runCtx(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: helcfl <%s> [-preset paper|fast|tiny] [-seed N] [-parallel N] [-out dir]", commandNames())
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	presetName := fs.String("preset", "fast", "experiment preset: paper, fast, or tiny")
	seed := fs.Int64("seed", 1, "deterministic seed")
	outDir := fs.String("out", "", "directory to write CSV artifacts into (optional)")
	parallel := fs.Int("parallel", 0, "grid worker count; 0 means GOMAXPROCS")
	nSeeds := fs.Int("n", 5, "seed count for the seeds experiment")
	scheme := fs.String("scheme", "HELCFL", "scheme for the trace experiment")
	settingName := fs.String("setting", "iid", "data setting for the trace/train/eval experiments: iid or noniid")
	modelPath := fs.String("model", "model.helcfl", "model file for train/eval")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address during the run")
	traceOut := fs.String("trace-out", "", "stream phase spans as JSONL to this file")
	flightDir := fs.String("flightrec-out", "", "directory for flight-recorder dumps (panic, SIGQUIT, end of run)")
	verbose := fs.Bool("v", false, "print progress lines to stderr")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	// Parse stops at the first non-flag, so anything left — flags included,
	// as in `fig1 tiny -preset x` — would otherwise be silently dropped.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (flags take a leading dash, e.g. -preset tiny)", fs.Args())
	}

	preset, err := experiments.LookupPreset(*presetName)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		var err error
		reg, err = serveObservability(*metricsAddr)
		if err != nil {
			return err
		}
		preset.Sink = obs.Multi(preset.Sink, obs.NewMetricsSink(reg))
	}

	trc, err := startTracing(uint64(*seed), *traceOut, *flightDir, reg)
	if err != nil {
		return err
	}
	if trc.fr != nil {
		// DumpOnPanic must be deferred here directly so its recover() sees
		// the panicking frame; it re-panics after photographing the rings.
		defer trc.fr.DumpOnPanic(trc.flightDir)
		preset.Sink = obs.Multi(preset.Sink, trc.fr.Sink())
	}
	ctx = span.NewContext(ctx, trc.rec) // nil recorder leaves ctx unchanged

	opt := experiments.Options{Seeds: *nSeeds}
	dispatch := func() error {
		switch cmd {
		case "trace":
			if *verbose {
				preset.Sink = obs.Multi(preset.Sink, &progressSink{w: stderr})
			}
			return runTrace(preset, *seed, *scheme, *settingName, *outDir, trc.rec)
		case "train":
			if *verbose {
				preset.Sink = obs.Multi(preset.Sink, &progressSink{w: stderr})
			}
			return runTrain(preset, *seed, *scheme, *settingName, *modelPath, trc.rec)
		case "eval":
			return runEval(preset, *seed, *settingName, *modelPath)
		}

		def, ok := experiments.LookupExperiment(cmd)
		if !ok {
			return fmt.Errorf("unknown experiment %q (want one of %s)", cmd, commandNames())
		}
		return runGrid(ctx, def, preset, *seed, opt, gridConfig{
			parallel: *parallel,
			outDir:   *outDir,
			metrics:  reg,
			verbose:  *verbose,
			announce: true,
		})
	}
	return errors.Join(dispatch(), trc.close())
}

// tracing owns the process-wide span pipeline behind -trace-out and
// -flightrec-out: one recorder seeded from -seed (so trace IDs are
// reproducible), a streaming JSONL exporter, a histogram bridge into the
// live metrics registry when -metrics-addr is on, and the flight recorder
// with its SIGQUIT handler. The zero tracing (no flags set) is inert.
type tracing struct {
	rec       *span.Recorder
	fr        *flight.Recorder
	flightDir string
	file      *os.File
	jsonl     *span.JSONL
	stop      func()
}

func startTracing(seed uint64, traceOut, flightDir string, reg *obs.Registry) (*tracing, error) {
	t := &tracing{flightDir: flightDir}
	if traceOut == "" && flightDir == "" {
		return t, nil
	}
	var exps []span.Exporter
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
		t.file = f
		t.jsonl = span.NewJSONL(f)
		exps = append(exps, t.jsonl)
	}
	if b := span.NewBridge(reg); b != nil {
		exps = append(exps, b)
	}
	t.rec = span.NewRecorder(seed, span.Options{Exporter: span.Exporters(exps...)})
	if flightDir != "" {
		t.fr = flight.New(t.rec, 0)
		t.stop = t.fr.Install(flightDir)
	}
	return t, nil
}

// close releases the signal handler, photographs the end of the run (every
// traced invocation leaves a dump, not only crashed ones), and flushes the
// span stream. Stream errors surface here rather than being dropped.
func (t *tracing) close() error {
	var errs []error
	if t.stop != nil {
		t.stop()
	}
	if t.fr != nil {
		path, err := t.fr.DumpTo(t.flightDir)
		if err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintln(stderr, "flight: dumped", path)
		}
	}
	if t.jsonl != nil {
		if err := t.jsonl.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("trace-out: %w", err))
		}
	}
	if t.file != nil {
		if err := t.file.Close(); err != nil {
			errs = append(errs, fmt.Errorf("trace-out: %w", err))
		}
	}
	return errors.Join(errs...)
}

// gridConfig carries the dispatcher knobs for one grid campaign.
type gridConfig struct {
	parallel int
	outDir   string
	metrics  *obs.Registry
	verbose  bool
	announce bool
}

// runGrid expands a registry definition and executes it on the worker pool.
func runGrid(ctx context.Context, def experiments.Definition, preset experiments.Preset, seed int64, opt experiments.Options, cfg gridConfig) error {
	// Cells capture the preset by value and their engines run concurrently,
	// so any shared sink must be serialized before the plan is built.
	preset.Sink = obs.Synchronized(preset.Sink)
	plan, err := def.Plan(preset, seed, opt)
	if err != nil {
		return err
	}
	runner := &grid.Runner{Parallel: cfg.parallel, Metrics: cfg.metrics}
	if cfg.verbose {
		runner.Progress = func(ev grid.Event) {
			if !ev.Done {
				fmt.Fprintf(stderr, "cell %s …\n", ev.Key)
				return
			}
			status := "ok"
			if ev.Err != nil {
				status = fmt.Sprintf("error: %v", ev.Err)
			}
			fmt.Fprintf(stderr, "cell [%d/%d] %s: %s\n", ev.Completed+ev.Failed, ev.Total, ev.Key, status)
		}
	}
	if cfg.announce {
		fmt.Fprintf(stderr, "%s: %d cells on %d workers\n", def.Name, len(plan.Cells), runner.Workers(len(plan.Cells)))
	}
	res, err := runner.Run(ctx, plan.Cells)
	if err != nil {
		return err
	}
	// Rendering (CSV assembly, artifact writes) is the third leg of the
	// campaign's cost next to env-build and run; give it its own span so
	// helcfl-inspect can apportion wall clock across all three.
	_, asmSp := span.StartCtx(ctx, "grid.assemble")
	err = plan.Render(res, newOutput(cfg.outDir))
	asmSp.End()
	return err
}

// newOutput renders to stdout and, when outDir is set, writes named
// artifacts there.
func newOutput(outDir string) experiments.Output {
	out := experiments.Output{W: os.Stdout}
	if outDir != "" {
		out.WriteArtifact = func(name string, data []byte) error {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(outDir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", path)
			return nil
		}
	}
	return out
}

// serveObservability starts the live metrics endpoint for the process
// lifetime and returns the registry campaign sinks should feed. Listening
// happens synchronously so a bad address fails the command immediately.
func serveObservability(addr string) (*obs.Registry, error) {
	reg := obs.Default()
	mux := http.NewServeMux()
	obs.MountDebug(mux, reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	fmt.Fprintf(stderr, "serving metrics on http://%s/metrics (pprof under /debug/pprof/)\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(stderr, "metrics server:", err)
		}
	}()
	return reg, nil
}

// progressSink prints one line per finished round — the -v flag on the
// bespoke single-run commands (trace, train).
type progressSink struct {
	w       io.Writer
	scheme  string
	lastAcc float64
	hasAcc  bool
}

func (p *progressSink) OnEvent(e obs.Event) {
	switch ev := e.(type) {
	case obs.RunStartEvent:
		p.scheme, p.lastAcc, p.hasAcc = ev.Scheme, 0, false
		fmt.Fprintf(p.w, "%s: starting, %d users, %d round budget\n", ev.Scheme, ev.Users, ev.MaxRounds)
	case obs.RoundEndEvent:
		if ev.Evaluated {
			p.lastAcc, p.hasAcc = ev.TestAccuracy, true
		}
		acc := "--"
		if p.hasAcc {
			acc = fmt.Sprintf("%.2f%%", p.lastAcc*100)
		}
		fmt.Fprintf(p.w, "%s round %d: %d selected, delay %.2fs, cum energy %.1fJ, test acc %s\n",
			p.scheme, ev.Round, len(ev.Selected), ev.DelaySec, ev.CumEnergyJ, acc)
	case obs.RunEndEvent:
		fmt.Fprintf(p.w, "%s: done after %d rounds, %.1fs simulated, %.1fJ, best acc %.2f%%\n",
			ev.Scheme, ev.Rounds, ev.TotalTimeSec, ev.TotalEnergyJ, ev.BestAccuracy*100)
	}
}

func runTrace(p experiments.Preset, seed int64, scheme, settingName, outDir string, rec *span.Recorder) error {
	setting, err := parseSetting(settingName)
	if err != nil {
		return err
	}
	var out io.Writer = os.Stdout
	if outDir != "" {
		name := filepath.Join(outDir, fmt.Sprintf("trace_%s_%s_%s.jsonl", p.Name, setting, scheme))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
		fmt.Fprintln(os.Stderr, "writing", name)
	}
	// Stream rounds through the event sink as they finish, instead of
	// dumping fl.Result post hoc: an interrupted run keeps a valid prefix.
	sink := trace.NewSink(out)
	p.Sink = obs.Multi(p.Sink, sink)
	env, err := experiments.BuildEnv(p, setting, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracing %s (%s, preset %s) …\n", scheme, setting, p.Name)
	if _, _, err := experiments.RunSchemeWith(env, scheme, func(c *fl.Config) { c.Trace = rec }); err != nil {
		return err
	}
	return sink.Flush()
}

func parseSetting(name string) (experiments.Setting, error) {
	switch name {
	case "iid":
		return experiments.IID, nil
	case "noniid":
		return experiments.NonIID, nil
	default:
		return "", fmt.Errorf("unknown setting %q (want iid or noniid)", name)
	}
}

func runTrain(p experiments.Preset, seed int64, scheme, settingName, modelPath string, rec *span.Recorder) error {
	setting, err := parseSetting(settingName)
	if err != nil {
		return err
	}
	env, err := experiments.BuildEnv(p, setting, seed)
	if err != nil {
		return err
	}
	fmt.Printf("training %s (%s, preset %s) …\n", scheme, setting, p.Name)
	curve, res, err := experiments.RunSchemeWith(env, scheme, func(c *fl.Config) { c.Trace = rec })
	if err != nil {
		return err
	}
	fmt.Printf("best accuracy %.2f%%, total delay %.1f min, total energy %.1f J\n",
		curve.Best()*100, res.TotalTime/60, res.TotalEnergy)
	if err := nn.SaveModel(modelPath, env.Spec, res.Model); err != nil {
		return err
	}
	fmt.Println("saved", modelPath)
	return nil
}

func runEval(p experiments.Preset, seed int64, settingName, modelPath string) error {
	setting, err := parseSetting(settingName)
	if err != nil {
		return err
	}
	spec, model, err := nn.LoadModel(modelPath)
	if err != nil {
		return err
	}
	env, err := experiments.BuildEnv(p, setting, seed)
	if err != nil {
		return err
	}
	if d := env.Spec; spec.InC != d.InC || spec.H != d.H || spec.W != d.W || spec.Classes != d.Classes {
		return fmt.Errorf("eval: %s takes %dx%dx%d inputs and %d classes, preset %s data is %dx%dx%d with %d classes",
			modelPath, spec.InC, spec.H, spec.W, spec.Classes, p.Name, d.InC, d.H, d.W, d.Classes)
	}
	loss, acc := fl.Evaluate(model, env.Synth.Test, spec.FlattensInput())
	fmt.Printf("%s on %s/%s test set: loss %.4f, accuracy %.2f%%\n",
		modelPath, p.Name, setting, loss, acc*100)
	fmt.Println(metrics.ConfusionOf(model, env.Synth.Test, spec.Classes, spec.FlattensInput()))
	return nil
}
