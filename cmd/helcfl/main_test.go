package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"helcfl/internal/experiments"
	"helcfl/internal/nn"
	"helcfl/internal/obs"
	"helcfl/internal/obs/span"
	"helcfl/internal/trace"
)

// The CLI is a thin wrapper over internal/experiments; these tests exercise
// argument parsing and each subcommand's happy path at tiny scale.

func TestRunUsageAndUnknowns(t *testing.T) {
	if err := runCtx(context.Background(), nil); err == nil {
		t.Fatal("no args must error")
	}
	if err := runCtx(context.Background(), []string{"nope"}); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if err := runCtx(context.Background(), []string{"fig1", "-preset", "bogus"}); err == nil {
		t.Fatal("unknown preset must error")
	}
	if err := runCtx(context.Background(), []string{"fig1", "-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag must error")
	}
	if err := runCtx(context.Background(), []string{"trace", "-preset", "tiny", "-setting", "weird"}); err == nil {
		t.Fatal("bad setting must error")
	}

	// A stray positional argument ends flag parsing: unchecked, this would
	// run the default preset and exit 0 with the bad -preset never read.
	err := runCtx(context.Background(), []string{"fig1", "tiny", "-preset", "nonsense"})
	if err == nil {
		t.Fatal("leftover arguments must error")
	}
	for _, want := range []string{"tiny", "-preset", "nonsense"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("leftover-argument error %q does not echo %q", err, want)
		}
	}

	// The timing subcommands and their flags are gone (_bench/ replaced
	// them); each must be rejected, not ignored.
	for _, cmd := range []string{"bench", "bench-scale"} {
		if err := runCtx(context.Background(), []string{cmd, "-preset", "tiny"}); err == nil {
			t.Fatalf("removed subcommand %q must error", cmd)
		}
	}
	for _, flag := range []string{"-experiment", "-bench-out", "-scale-out", "-max-q", "-budget-sec"} {
		if err := runCtx(context.Background(), []string{"fig1", "-preset", "tiny", flag, "1"}); err == nil {
			t.Fatalf("removed flag %s must error", flag)
		}
	}

	// grid.Runner is the only campaign executor: the worker-fleet flags
	// are gone and must not silently fall back to the local pool.
	for _, flag := range []string{"-fleet", "-fleet-journal", "-fleet-resume", "-fleet-ttl"} {
		err := runCtx(context.Background(), []string{"fig1", "-preset", "tiny", flag, ":0"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("removed flag %s: got %v, want an unknown-flag error", flag, err)
		}
	}
}

// TestCommandListComesFromRegistry pins that the usage string and the
// unknown-experiment error name every registered experiment plus the three
// bespoke commands, so the list cannot drift when a Definition is added.
func TestCommandListComesFromRegistry(t *testing.T) {
	usage, unknown := runCtx(context.Background(), nil), runCtx(context.Background(), []string{"nope", "-preset", "tiny"})
	if usage == nil || unknown == nil {
		t.Fatal("no args and an unknown experiment must both error")
	}
	names := []string{"trace", "train", "eval"}
	for _, def := range experiments.Registry() {
		names = append(names, def.Name)
	}
	for _, name := range names {
		for _, err := range []error{usage, unknown} {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("%q does not list %q", err, name)
			}
		}
	}
}

func TestRunFig1Tiny(t *testing.T) {
	if err := runCtx(context.Background(), []string{"fig1", "-preset", "tiny"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrainEvalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "m.helcfl")
	if err := runCtx(context.Background(), []string{"train", "-preset", "tiny", "-model", model}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatal("model file not written")
	}
	if err := runCtx(context.Background(), []string{"eval", "-preset", "tiny", "-model", model}); err != nil {
		t.Fatal(err)
	}
	if err := runCtx(context.Background(), []string{"eval", "-preset", "tiny", "-model", filepath.Join(dir, "missing")}); err == nil {
		t.Fatal("missing model must error")
	}
	// A valid model for other data is an error, not a shape panic.
	spec := nn.ModelSpec{Kind: "logistic", InC: 1, H: 2, W: 2, Classes: 2}
	other := filepath.Join(dir, "other.helcfl")
	if err := nn.SaveModel(other, spec, spec.Build(rand.New(rand.NewSource(1)))); err != nil {
		t.Fatal(err)
	}
	if err := runCtx(context.Background(), []string{"eval", "-preset", "tiny", "-model", other}); err == nil || !strings.Contains(err.Error(), "1x2x2") {
		t.Fatalf("eval of a 1x2x2 model on tiny data: %v, want a geometry error", err)
	}
}

func TestRunTraceWritesFile(t *testing.T) {
	dir := t.TempDir()
	if err := runCtx(context.Background(), []string{"trace", "-preset", "tiny", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "trace_*.jsonl"))
	if len(matches) != 1 {
		t.Fatalf("trace files = %v", matches)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil || len(data) == 0 {
		t.Fatalf("trace file empty: %v", err)
	}
}

// TestRunVerboseWithLiveMetrics drives a traced campaign with -v and
// -metrics-addr: the progress lines land on stderr, the live /metrics
// endpoint serves the campaign counters, and the streamed JSONL validates.
func TestRunVerboseWithLiveMetrics(t *testing.T) {
	var buf bytes.Buffer
	old := stderr
	stderr = &buf
	defer func() { stderr = old }()

	dir := t.TempDir()
	if err := runCtx(context.Background(), []string{"trace", "-preset", "tiny", "-v", "-metrics-addr", "127.0.0.1:0", "-out", dir}); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.Contains(out, "HELCFL: starting, 16 users") {
		t.Fatalf("missing run-start line in:\n%s", out)
	}
	// Per-round summaries carry selection size, delay, energy and accuracy.
	roundLine := regexp.MustCompile(`HELCFL round \d+: \d+ selected, delay \d+\.\d+s, cum energy \d+\.\d+J, test acc `)
	if !roundLine.MatchString(out) {
		t.Fatalf("missing per-round progress lines in:\n%s", out)
	}
	if !strings.Contains(out, "HELCFL: done after") {
		t.Fatalf("missing run-end line in:\n%s", out)
	}

	// The metrics endpoint announced its bound address; scrape it live.
	m := regexp.MustCompile(`serving metrics on (http://[^/]+/metrics)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("metrics address not announced in:\n%s", out)
	}
	resp, err := http.Get(m[1])
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"helcfl_rounds_total", "helcfl_round_delay_seconds_bucket",
		`helcfl_energy_joules_total{kind="compute"}`,
		`helcfl_selection_count{user="0"}`,
		"helcfl_slack_reclaimed_seconds_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// The trace streamed through the same event stream stays valid.
	matches, _ := filepath.Glob(filepath.Join(dir, "trace_*.jsonl"))
	if len(matches) != 1 {
		t.Fatalf("trace files = %v", matches)
	}
	f, err := os.Open(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("streamed trace is empty")
	}
}

func TestRunRejectsBadMetricsAddr(t *testing.T) {
	if err := runCtx(context.Background(), []string{"fig1", "-preset", "tiny", "-metrics-addr", "256.0.0.1:bogus"}); err == nil {
		t.Fatal("unusable metrics address must error")
	}
}

func TestRunSeedsValidatesCount(t *testing.T) {
	if err := runCtx(context.Background(), []string{"seeds", "-preset", "tiny", "-n", "0"}); err == nil {
		t.Fatal("zero seed count must error")
	}
}

func TestRunBatteryTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("battery campaign trains ten runs")
	}
	if err := runCtx(context.Background(), []string{"battery", "-preset", "tiny"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSeedsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed campaign is slow")
	}
	if err := runCtx(context.Background(), []string{"seeds", "-preset", "tiny", "-n", "2"}); err != nil {
		t.Fatal(err)
	}
}

// The full artifact pipeline at tiny scale: every figure, table, ablation,
// and the headline block render without error and the CSVs land on disk.
func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is slow")
	}
	dir := t.TempDir()
	if err := runCtx(context.Background(), []string{"all", "-preset", "tiny", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "fig2_tiny_*.csv"))
	if len(matches) != 2 {
		t.Fatalf("fig2 CSVs = %v", matches)
	}
}

func TestRunParallelFlag(t *testing.T) {
	if err := runCtx(context.Background(), []string{"fig2", "-preset", "tiny", "-parallel", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runCtx(ctx, []string{"fig2", "-preset", "tiny"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: err = %v, want context.Canceled", err)
	}
}

// TestRunFig2TraceOut is the acceptance path for the span pipeline: a fig2
// campaign with -trace-out and -flightrec-out must stream spans covering
// every recorded round's plan/train/upload/aggregate phases, record the
// per-cell env-build vs run split, and leave a flight dump on exit.
func TestRunFig2TraceOut(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.jsonl")
	flightDir := filepath.Join(dir, "flight")
	if err := runCtx(context.Background(), []string{"fig2", "-preset", "tiny", "-parallel", "2",
		"-trace-out", spansPath, "-flightrec-out", flightDir}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := span.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := span.Validate(recs); err != nil {
		t.Fatal(err)
	}

	// Every recorded round span must have all four required phase children.
	type key struct{ trace, span uint64 }
	phases := map[key]map[string]bool{}
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Name]++
		if strings.HasPrefix(r.Name, "fl.round.") {
			k := key{r.Trace, r.Parent}
			if phases[k] == nil {
				phases[k] = map[string]bool{}
			}
			phases[k][r.Name] = true
		}
	}
	rounds := 0
	for _, r := range recs {
		if r.Name != "fl.round" {
			continue
		}
		rounds++
		for _, want := range []string{"fl.round.plan", "fl.round.train", "fl.round.upload", "fl.round.aggregate"} {
			if !phases[key{r.Trace, r.Span}][want] {
				t.Fatalf("round span %016x-%016x missing %s", r.Trace, r.Span, want)
			}
		}
	}
	if rounds == 0 {
		t.Fatal("no round spans recorded")
	}
	// The campaign layer reports env-build vs run per cell, plus assembly.
	if counts["grid.campaign"] != 1 || counts["grid.cell"] == 0 ||
		counts["cell.envbuild"] != counts["grid.cell"] || counts["cell.run"] != counts["grid.cell"] ||
		counts["grid.assemble"] != 1 {
		t.Fatalf("campaign span counts off: %v", counts)
	}
	if counts["sched.select"] == 0 || counts["sched.dvfs"] == 0 {
		t.Fatalf("scheduler spans missing: %v", counts)
	}

	// End-of-run flight dump exists and is span.Read-compatible.
	dumps, _ := filepath.Glob(filepath.Join(flightDir, "flightrec-*.jsonl"))
	if len(dumps) != 1 {
		t.Fatalf("flight dumps = %v", dumps)
	}
	dump, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := span.Read(bytes.NewReader(dump)); err != nil {
		t.Fatalf("span.Read on flight dump: %v", err)
	}
	// Every event line carries a known kind and its JSON-encoded fields.
	kinds := map[string]bool{}
	for _, ev := range []obs.Event{obs.RunStartEvent{}, obs.RoundStartEvent{}, obs.SelectionEvent{},
		obs.LocalUpdateEvent{}, obs.UploadEvent{}, obs.DropoutEvent{}, obs.BatteryEvent{},
		obs.AggregateEvent{}, obs.RoundEndEvent{}, obs.RunEndEvent{}} {
		kinds[ev.Kind()] = true
	}
	events := 0
	for _, line := range bytes.Split(bytes.TrimSpace(dump), []byte("\n")) {
		var l struct {
			Event string
			Data  map[string]json.RawMessage
		}
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("flight dump line %s: %v", line, err)
		}
		if l.Event == "" {
			continue
		}
		if !kinds[l.Event] || len(l.Data) == 0 {
			t.Fatalf("flight dump event line %s: unknown kind or no fields", line)
		}
		events++
	}
	if events == 0 {
		t.Fatal("flight dump holds no event lines")
	}
}

// TestRunTraceSpanInterop runs the bespoke trace command with both
// telemetry streams on and cross-checks them: the span file's fl.round
// spans must agree one-for-one with the internal/trace round records.
func TestRunTraceSpanInterop(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.jsonl")
	if err := runCtx(context.Background(), []string{"trace", "-preset", "tiny", "-out", dir, "-trace-out", spansPath}); err != nil {
		t.Fatal(err)
	}

	matches, _ := filepath.Glob(filepath.Join(dir, "trace_*.jsonl"))
	if len(matches) != 1 {
		t.Fatalf("trace files = %v", matches)
	}
	tf, err := os.Open(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	trecs, err := trace.Read(tf)
	if err != nil {
		t.Fatal(err)
	}

	sf, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	srecs, err := span.Read(sf)
	if err != nil {
		t.Fatal(err)
	}

	spanRounds := map[int64]bool{}
	for _, r := range srecs {
		if r.Name != "fl.round" {
			continue
		}
		j, ok := r.IntAttr("round")
		if !ok {
			t.Fatal("round span without round attribute")
		}
		spanRounds[j] = true
	}
	if len(spanRounds) != len(trecs) {
		t.Fatalf("%d round spans vs %d trace records", len(spanRounds), len(trecs))
	}
	for _, tr := range trecs {
		if !spanRounds[int64(tr.Round)] {
			t.Fatalf("trace record round %d has no matching span", tr.Round)
		}
	}
}
