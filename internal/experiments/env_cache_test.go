package experiments

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"helcfl/internal/obs"
)

// TestCachedEnvIdentityAndKeying pins the memoization contract: same key →
// same *Env; observability-only preset differences share entries; any
// environment-shaping difference (seed, setting, preset knob) splits them.
func TestCachedEnvIdentityAndKeying(t *testing.T) {
	ResetEnvCache()
	defer ResetEnvCache()
	p := Tiny()
	a, err := CachedEnv(p, IID, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedEnv(p, IID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same key returned distinct environments")
	}
	withSink := p
	withSink.Sink = obs.MultiSink{} // a non-nil sink that ignores every event
	c, err := CachedEnv(withSink, IID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("Sink-only preset difference split the cache entry")
	}
	d, err := CachedEnv(p, IID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("different seeds shared an environment")
	}
	noisy := p
	noisy.Noise += 0.1
	e, err := CachedEnv(noisy, IID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e == a {
		t.Fatal("different presets shared an environment")
	}
}

// TestCachedEnvMatchesBuildEnv pins that a cached environment is
// bit-identical to a freshly built one: same data, labels, partition, and
// fleet parameters.
func TestCachedEnvMatchesBuildEnv(t *testing.T) {
	ResetEnvCache()
	defer ResetEnvCache()
	p := Tiny()
	cached, err := CachedEnv(p, NonIID, 5)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildEnv(p, NonIID, 5)
	if err != nil {
		t.Fatal(err)
	}
	cd, fd := cached.Synth.Train.X.Data(), fresh.Synth.Train.X.Data()
	if len(cd) != len(fd) {
		t.Fatalf("train sizes differ: %d vs %d", len(cd), len(fd))
	}
	for i := range cd {
		if math.Float64bits(cd[i]) != math.Float64bits(fd[i]) {
			t.Fatalf("train pixel %d differs", i)
		}
	}
	if len(cached.UserData) != len(fresh.UserData) {
		t.Fatalf("user counts differ")
	}
	for q := range cached.UserData {
		if cached.UserData[q].N() != fresh.UserData[q].N() {
			t.Fatalf("user %d has %d samples cached, %d fresh", q, cached.UserData[q].N(), fresh.UserData[q].N())
		}
	}
	for q := range cached.Devices {
		c, f := cached.Devices[q], fresh.Devices[q]
		if c.NumSamples != f.NumSamples ||
			math.Float64bits(c.FMax) != math.Float64bits(f.FMax) ||
			math.Float64bits(c.ChannelGain) != math.Float64bits(f.ChannelGain) {
			t.Fatalf("device %d differs between cached and fresh env", q)
		}
	}
	if math.Float64bits(cached.ModelBits) != math.Float64bits(fresh.ModelBits) {
		t.Fatalf("ModelBits differ: %g vs %g", cached.ModelBits, fresh.ModelBits)
	}
}

// TestCachedEnvConcurrentRunsBitIdentical runs the same scheme twice
// concurrently on one shared cached environment and once on a fresh private
// environment. All three must agree bit-for-bit — and under -race this
// proves concurrent engines never write to the shared fleet (the
// skip-if-equal NumSamples guard).
func TestCachedEnvConcurrentRunsBitIdentical(t *testing.T) {
	ResetEnvCache()
	defer ResetEnvCache()
	p := Tiny()
	shared, err := CachedEnv(p, IID, 3)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		final float64
		err   error
	}
	results := make([]out, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, res, err := RunScheme(shared, "HELCFL")
			if err != nil {
				results[i] = out{err: err}
				return
			}
			results[i] = out{final: res.FinalAccuracy}
		}(i)
	}
	wg.Wait()
	fresh, err := BuildEnv(p, IID, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := RunScheme(fresh, "HELCFL")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("concurrent run %d: %v", i, r.err)
		}
		if math.Float64bits(r.final) != math.Float64bits(want.FinalAccuracy) {
			t.Fatalf("concurrent run %d final accuracy %g, want %g", i, r.final, want.FinalAccuracy)
		}
	}
}

// countSink counts the events it receives.
type countSink struct{ n atomic.Int64 }

func (c *countSink) OnEvent(obs.Event) { c.n.Add(1) }

// TestCellUsesItsOwnSink pins that a cell runs with its own preset's Sink
// when the cached environment was built by a cell with another one.
func TestCellUsesItsOwnSink(t *testing.T) {
	ResetEnvCache()
	defer ResetEnvCache()
	p := Tiny()
	p.MaxRounds = 1
	if _, err := trainCell(p, IID, 1, "HELCFL", "", nil).Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	sink := &countSink{}
	p.Sink = sink
	if _, err := trainCell(p, IID, 1, "HELCFL", "", nil).Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if sink.n.Load() == 0 {
		t.Fatal("the cell ran with the cached environment's sink, not its own")
	}
}
