package experiments

import (
	"fmt"
	"sync"
)

// Environment cache.
//
// A campaign grid runs many cells that share the same (preset, setting,
// seed) — every scheme of a Fig. 2 comparison, every variant of an
// ablation. BuildEnv is deterministic in that key, so those cells used to
// rebuild byte-identical environments over and over; for large presets the
// synthetic dataset generation and partitioning dominates the cell setup
// cost. CachedEnv memoizes the build.
//
// Sharing is sound because a built Env is read-only during runs: the fl
// engines only ever write Device.NumSamples, and they skip the write when
// the value already matches (BuildEnv sets it), so concurrent cells never
// race on the shared fleet — the -race cache tests pin this. The one
// sanctioned mutation pattern is copying the Env struct first, as the
// compression cells do for their ModelBits override.

// envCacheEntry builds its environment exactly once, even under concurrent
// first lookups of the same key.
type envCacheEntry struct {
	once sync.Once
	env  *Env
	err  error
}

var envCache sync.Map // envKey string -> *envCacheEntry

// envCacheKey fingerprints everything BuildEnv's output depends on. The
// Sink is excluded: it does not shape the environment, and presets differing
// only in observability must share cache entries.
func envCacheKey(p Preset, s Setting, seed int64) string {
	p.Sink = nil
	return fmt.Sprintf("%s|%d|%+v", s, seed, p)
}

// CachedEnv returns the (deterministic) environment for the key, building
// it at most once per process. The returned Env is shared: callers must
// treat it as read-only, copying the struct before overriding any field.
// Its Preset.Sink is the first builder's, not necessarily p.Sink.
func CachedEnv(p Preset, s Setting, seed int64) (*Env, error) {
	v, _ := envCache.LoadOrStore(envCacheKey(p, s, seed), &envCacheEntry{})
	e := v.(*envCacheEntry)
	e.once.Do(func() { e.env, e.err = BuildEnv(p, s, seed) })
	return e.env, e.err
}

// ResetEnvCache drops every cached environment (tests that need fresh
// fleets, long-lived processes bounding memory).
func ResetEnvCache() {
	envCache.Range(func(k, _ any) bool {
		envCache.Delete(k)
		return true
	})
}
