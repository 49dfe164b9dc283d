package wireless

import (
	"fmt"
	"math"
	"math/rand"
)

// GainProcess produces the per-round channel gain of each user. Without one
// the system uses the static gains measured in the FLCC's initialization
// phase (the paper's assumption); BlockFading models the realistic case
// where the channel drifts between rounds while the scheduler still plans on
// the stale initialization-phase measurements.
type GainProcess interface {
	// Name identifies the process in reports.
	Name() string
	// Gain returns user `user`'s channel gain in round `round`, given its
	// static (initialization-phase) gain.
	Gain(round, user int, static float64) float64
}

// BlockFading applies an independent log-normal multiplicative factor per
// (round, user) block: h(t) = h₀ · exp(σ·Z − σ²/2), Z ~ N(0,1), so the
// factor has unit mean. Draws are deterministic in (Seed, round, user).
type BlockFading struct {
	// Sigma is the log-scale standard deviation (0.3–0.8 is moderate to
	// severe fading).
	Sigma float64
	// Seed makes the process reproducible.
	Seed int64
}

// NewBlockFading validates and returns a BlockFading process.
func NewBlockFading(sigma float64, seed int64) BlockFading {
	if sigma < 0 {
		panic(fmt.Sprintf("wireless: negative fading sigma %g", sigma))
	}
	return BlockFading{Sigma: sigma, Seed: seed}
}

// Name implements GainProcess.
func (b BlockFading) Name() string { return fmt.Sprintf("fading(σ=%.2f)", b.Sigma) }

// Gain implements GainProcess.
func (b BlockFading) Gain(round, user int, static float64) float64 {
	if b.Sigma == 0 {
		return static
	}
	// Mix (seed, round, user) into an rng stream; splitmix-style avalanche
	// keeps adjacent blocks uncorrelated.
	z := uint64(b.Seed)*0x9E3779B97F4A7C15 ^ uint64(round)*0xBF58476D1CE4E5B9 ^ uint64(user)*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	rng := rand.New(rand.NewSource(int64(z >> 1)))
	factor := math.Exp(b.Sigma*rng.NormFloat64() - b.Sigma*b.Sigma/2)
	return static * factor
}
