package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"helcfl/_bench/harness"
	"helcfl/internal/nn"
	"helcfl/internal/obs/span"
)

// outcome counts the output checks of a run. Every check is one attempted
// operation; a failed one makes the run incorrect.
type outcome struct {
	attempted, failed int
}

// check records one verified output; the message names it when it fails.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
	}
}

// checkN records n operations of one kind of which bad failed.
func (o *outcome) checkN(n, bad int, format string, args ...any) {
	o.attempted += n
	if bad > 0 {
		o.failed += bad
		fmt.Fprintf(os.Stderr, "CHECK FAILED (%d of %d): "+format+"\n", append([]any{bad, n}, args...)...)
	}
}

// campaign is one fixed-size unit of a workload — set-up, then a frozen
// number of rounds (or grid cells) — as the untraced pass measures it. A run
// repeats campaigns until its time is up.
type campaign struct {
	setupS float64
	// runS is the wall time of the timed section (the sum of the round
	// samples where rounds are sequential), cpuS its user+sys CPU time.
	runS, cpuS float64
	rounds     int
	// cells is the number of whole campaigns this unit stands for: 1, or
	// the grid's cell count.
	cells   int
	roundMs []float64
	// digest fingerprints the unit's outputs: same seed, same digest.
	digest uint64
	// peakRSSMB is the resident-set high-water mark over set-up and run;
	// runUntraced fills it in.
	peakRSSMB float64
}

// workload is one row of BENCHMARK.json's workloads.
type workload struct {
	name string
	// seedCycle is how many consecutive seeds the campaigns of a run cycle
	// through: campaign k runs seed + k mod seedCycle, so campaign seedCycle
	// replays seed+0 and must reproduce its digest. A run always gets that
	// far, whatever its time budget.
	seedCycle int
	// campaign runs unit k on the given seed.
	campaign func(seed int64, quick bool, o *outcome) (campaign, error)
	// traced runs the per-layer pass and returns the spans it recorded.
	traced func(seed int64, quick bool, o *outcome, m metrics) ([]span.Rec, error)
}

var workloads = []workload{
	flWorkload(flMLP),
	flWorkload(flCNN),
	flWorkload(flWide),
	schedWorkload,
	gridWorkload,
	deployWorkload,
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runUntraced repeats campaigns for at least the given time and reduces them
// to the end-to-end metrics. Every wall-clock metric is a median over the
// run's campaigns, so a burst of interference during one campaign does not
// move the run's number.
func runUntraced(w workload, seed int64, seconds float64, quick bool, o *outcome) (metrics, error) {
	var (
		all      []campaign
		digest0  uint64
		deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
	)
	for k := 0; k <= w.seedCycle || time.Now().Before(deadline); k++ {
		// Every campaign starts like the first one of a fresh process: the
		// previous campaign's garbage is collected and its pages returned,
		// outside every timed section, and the resident-set high-water mark
		// is reset so that each campaign reports its own.
		debug.FreeOSMemory()
		perCampaignRSS := harness.ResetPeakRSS() == nil
		s := seed + int64(k%w.seedCycle)
		c, err := w.campaign(s, quick, o)
		if err != nil {
			return nil, fmt.Errorf("%s: campaign %d: %w", w.name, k, err)
		}
		if c.peakRSSMB, err = harness.PeakRSSMB(); err != nil {
			return nil, err
		}
		if k == 0 {
			digest0 = c.digest
		}
		if k%w.seedCycle == 0 && k > 0 {
			o.check(c.digest == digest0, "%s: campaign %d replayed seed %d with digest %016x, first run gave %016x", w.name, k, seed, c.digest, digest0)
		}
		fmt.Printf("%s campaign %d: seed %d, set-up %.4gs, %d rounds in %.4gs (%.5g rounds/s), cpu %.4gs, peak rss %.4g MB (per campaign: %v)\n",
			w.name, k, s, c.setupS, c.rounds, c.runS, float64(c.rounds)/c.runS, c.cpuS, c.peakRSSMB, perCampaignRSS)
		all = append(all, c)
	}

	m := metrics{}
	var setups, cpus, rates, cellRates, rss, rounds []float64
	nRounds := 0
	for _, c := range all {
		setups = append(setups, c.setupS)
		cpus = append(cpus, c.cpuS)
		rates = append(rates, float64(c.rounds)/c.runS)
		cellRates = append(cellRates, float64(c.cells)/(c.setupS+c.runS))
		rss = append(rss, c.peakRSSMB)
		rounds = append(rounds, c.roundMs...)
		nRounds += c.rounds
	}
	m["setup_s"] = harness.Median(setups)
	m["rounds_per_s"] = harness.Median(rates)
	m["round_p50_ms"] = harness.Median(rounds)
	m["cells_per_s"] = harness.Median(cellRates)
	m["cpu_s"] = harness.Median(cpus)
	m["peak_rss_mb"] = harness.Median(rss)
	for _, d := range endToEnd {
		v := m[d.name]
		o.check(v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v), "%s: %s = %v, want a positive finite number", w.name, d.name, v)
	}
	fmt.Printf("%s: %d campaigns, %d rounds, %d round samples\n", w.name, len(all), nRounds, len(rounds))
	return m, nil
}

// procMetrics fills the process-level per-layer metrics for a traced run
// that started at t0 with cpu0 CPU seconds on the clock.
func procMetrics(m metrics, t0 time.Time, cpu0 float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.gc_cycles"] = float64(ms.NumGC)
	m["proc.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
	wall := time.Since(t0).Seconds()
	m["proc.cpu_util_pct"] = 100 * (harness.CPUSeconds() - cpu0) / (wall * float64(runtime.NumCPU()))
}

// setTiming stores a timing's median under name, and prints it with the
// highest percentile that has at least ten samples beyond it and the count.
func setTiming(m metrics, name, unit string, samples []float64) {
	s := harness.Summarize(samples)
	m[name] = s.P50
	if s.TailP > 0 {
		fmt.Printf("  %-40s p50 %.4g %s, p%g %.4g %s, n=%d\n", name, s.P50, unit, s.TailP, s.Tail, unit, s.Count)
	} else {
		fmt.Printf("  %-40s p50 %.4g %s, n=%d\n", name, s.P50, unit, s.Count)
	}
}

// overheadPct is by how many percent traced is slower than plain.
func overheadPct(traced, plain float64) float64 {
	if plain == 0 {
		return 0
	}
	return 100 * (traced - plain) / plain
}

// scaled converts samples by a constant factor (ms → µs and the like).
func scaled(samples []float64, by float64) []float64 {
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = v * by
	}
	return out
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// digestFloats folds the exact bits of xs into h.
func digestFloats(h uint64, xs []float64) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		_, _ = f.Write(b[:]) // hash.Hash never returns an error
	}
	put(h)
	for _, x := range xs {
		put(math.Float64bits(x))
	}
	return f.Sum64()
}

// digestModel fingerprints a model's parameters bit for bit.
func digestModel(m *nn.Sequential) uint64 {
	return digestFloats(0, m.GetFlatParams())
}

// selfByLayer sums span self time per layer; a span no layer claims is the
// bench's own glue.
func selfByLayer(recs []span.Rec, layerOf map[string]string) map[string]float64 {
	out := make(map[string]float64)
	for name, ns := range harness.SelfByName(recs) {
		layer, ok := layerOf[name]
		if !ok {
			layer = "harness"
		}
		out[layer] += float64(ns)
	}
	return out
}
