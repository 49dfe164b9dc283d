package trace_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"helcfl/internal/dataset"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/obs"
	"helcfl/internal/sim"
	"helcfl/internal/trace"
	"helcfl/internal/wireless"
)

// Satellite: trace.Sink and obs.MultiSink under concurrent writers. Several
// fl.Run campaigns execute in parallel, each fanning its event stream out to
// a private streaming trace, a private ordering recorder, and a MetricsSink
// bound to one registry shared by every run — the deployment shape of a
// multi-campaign host process. -race guards the registry; the assertions pin
// per-round event ordering and trace-line monotonicity.

// orderRecorder flattens the event stream into (kind, round) steps.
type orderRecorder struct {
	steps []orderStep
}

type orderStep struct {
	kind  string
	round int
}

func (r *orderRecorder) OnEvent(e obs.Event) {
	switch ev := e.(type) {
	case obs.RoundStartEvent:
		r.steps = append(r.steps, orderStep{"start", ev.Round})
	case obs.SelectionEvent:
		r.steps = append(r.steps, orderStep{"selection", ev.Round})
	case obs.LocalUpdateEvent:
		r.steps = append(r.steps, orderStep{"local", ev.Round})
	case obs.UploadEvent:
		r.steps = append(r.steps, orderStep{"upload", ev.Round})
	case obs.AggregateEvent:
		r.steps = append(r.steps, orderStep{"aggregate", ev.Round})
	case obs.RoundEndEvent:
		r.steps = append(r.steps, orderStep{"end", ev.Round})
	}
}

// phaseRank is the required within-round ordering of event kinds.
var phaseRank = map[string]int{
	"start": 0, "selection": 1,
	"local": 2, "upload": 2, // spans interleave freely with each other
	"aggregate": 3, "end": 4,
}

// checkMonotonic asserts rounds never regress and, within one round, phases
// never run backwards.
func checkMonotonic(t *testing.T, steps []orderStep) {
	t.Helper()
	round, rank := -1, 0
	for i, s := range steps {
		switch {
		case s.round < round:
			t.Fatalf("step %d: round regressed %d → %d (%q)", i, round, s.round, s.kind)
		case s.round > round:
			if s.kind != "start" {
				t.Fatalf("step %d: round %d opened with %q, want start", i, s.round, s.kind)
			}
			round, rank = s.round, 0
		default:
			if r := phaseRank[s.kind]; r < rank {
				t.Fatalf("step %d: round %d phase ran backwards to %q (rank %d after %d)",
					i, s.round, s.kind, r, rank)
			} else {
				rank = r
			}
		}
	}
	if round < 0 {
		t.Fatal("no events recorded")
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// smallRun executes one deterministic campaign with the given sink.
func smallRun(seed int64, sink obs.EventSink) error {
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: 3, C: 1, H: 4, W: 4, TrainN: 90, TestN: 45, Noise: 0.6, Seed: seed,
	})
	users := 3
	part := dataset.PartitionIID(synth.Train, users, newRand(seed))
	ud := dataset.UserDatasets(synth.Train, part)
	cfg := device.DefaultCatalogConfig()
	cfg.Q = users
	devs := device.NewCatalog(cfg, newRand(seed+1))
	for q, d := range devs {
		d.NumSamples = ud[q].N()
	}
	planner := &fl.Composed{
		Label:   "all",
		Devices: devs,
		Select: func(int) []int {
			sel := make([]int, users)
			for i := range sel {
				sel[i] = i
			}
			return sel
		},
		Frequencies: sim.MaxFrequencies,
	}
	_, err := fl.Run(fl.Config{
		Spec:       nn.ModelSpec{Kind: "logistic", InC: 1, H: 4, W: 4, Classes: 3},
		Devices:    devs,
		Channel:    wireless.DefaultChannel(),
		UserData:   ud,
		Test:       synth.Test,
		Planner:    planner,
		LR:         0.3,
		LocalSteps: 1,
		MaxRounds:  6,
		EvalEvery:  2,
		Sink:       sink,
		Seed:       seed,
	})
	return err
}

func TestTraceAndMultiSinkUnderParallelRuns(t *testing.T) {
	const runs = 8
	shared := obs.NewRegistry()

	type runOut struct {
		buf *bytes.Buffer
		ts  *trace.Sink
		rec *orderRecorder
		err error
	}
	outs := make([]runOut, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		buf := &bytes.Buffer{}
		outs[i] = runOut{buf: buf, ts: trace.NewSink(buf), rec: &orderRecorder{}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			sink := obs.Multi(o.ts, o.rec, obs.NewMetricsSink(shared))
			o.err = smallRun(int64(100+i), sink)
		}(i)
	}
	wg.Wait()

	totalRounds := 0
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			t.Fatalf("run %d: %v", i, o.err)
		}
		if err := o.ts.Flush(); err != nil {
			t.Fatalf("run %d: trace flush: %v", i, err)
		}
		checkMonotonic(t, o.rec.steps)

		// The streamed trace is valid JSONL with strictly ascending rounds.
		sc := bufio.NewScanner(bytes.NewReader(o.buf.Bytes()))
		prev := -1
		lines := 0
		for sc.Scan() {
			var rec trace.Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("run %d line %d: %v", i, lines, err)
			}
			if rec.Round <= prev {
				t.Fatalf("run %d: trace round %d after %d", i, rec.Round, prev)
			}
			prev = rec.Round
			lines++
		}
		if lines != 6 {
			t.Fatalf("run %d: %d trace lines, want 6", i, lines)
		}
		totalRounds += lines
	}

	// The shared registry saw every round exactly once across all writers.
	var buf bytes.Buffer
	if err := shared.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("helcfl_rounds_total %d", totalRounds)
	if !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("shared registry missing %q; got:\n%s", want, firstLines(buf.String(), 20))
	}
	wantRuns := fmt.Sprintf("helcfl_runs_total %d", runs)
	if !bytes.Contains(buf.Bytes(), []byte(wantRuns)) {
		t.Fatalf("shared registry missing %q", wantRuns)
	}
}

func firstLines(s string, n int) string {
	out := ""
	for i, line := range bytes.Split([]byte(s), []byte("\n")) {
		if i >= n {
			break
		}
		out += string(line) + "\n"
	}
	return out
}
