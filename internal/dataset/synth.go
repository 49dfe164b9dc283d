package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"helcfl/internal/tensor"
)

// SynthConfig describes a SynthCIFAR generation run.
type SynthConfig struct {
	// Classes is the number of categories (CIFAR-10 analogue: 10).
	Classes int
	// C, H, W give the image geometry (default 3×8×8).
	C, H, W int
	// TrainN and TestN are sample counts for the two splits.
	TrainN, TestN int
	// Noise is the per-pixel Gaussian noise std added to class prototypes.
	// Larger values make the task harder; 0.8–1.2 gives CIFAR-like
	// non-trivial accuracy trajectories for small models.
	Noise float64
	// Seed controls prototype and sample generation.
	Seed int64
}

// withDefaults fills zero fields with the standard experiment values.
func (c SynthConfig) withDefaults() SynthConfig {
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.C == 0 {
		c.C = 3
	}
	if c.H == 0 {
		c.H = 8
	}
	if c.W == 0 {
		c.W = 8
	}
	if c.TrainN == 0 {
		c.TrainN = 4000
	}
	if c.TestN == 0 {
		c.TestN = 1000
	}
	if c.Noise == 0 {
		c.Noise = 1.0
	}
	return c
}

// Synth holds a generated train/test pair.
type Synth struct {
	Train *Dataset
	Test  *Dataset
}

// GenerateSynth builds a SynthCIFAR dataset. Each class is a smooth spatial
// prototype (a per-channel mixture of two 2-D sinusoids with class-specific
// frequencies and phases); each sample is its class prototype plus white
// Gaussian noise. Class labels are balanced in both splits up to rounding.
func GenerateSynth(cfg SynthConfig) *Synth {
	cfg = cfg.withDefaults()
	if cfg.Classes < 2 {
		panic(fmt.Sprintf("dataset: need ≥2 classes, got %d", cfg.Classes))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	protos := make([]*tensor.Tensor, cfg.Classes)
	for k := range protos {
		protos[k] = classPrototype(cfg, rng)
	}

	gen := func(n int) *Dataset {
		d := &Dataset{X: tensor.New(n, cfg.C, cfg.H, cfg.W), Labels: make([]int, n)}
		plane := cfg.C * cfg.H * cfg.W
		for i := 0; i < n; i++ {
			k := i % cfg.Classes // balanced labels before shuffling
			d.Labels[i] = k
			dst := d.X.Data()[i*plane : (i+1)*plane]
			src := protos[k].Data()
			for j := range dst {
				dst[j] = src[j] + cfg.Noise*rng.NormFloat64()
			}
		}
		// Shuffle so the raw order carries no label signal; the Non-IID
		// partitioner re-sorts explicitly, as in McMahan et al.
		shuffleDataset(d, rng)
		return d
	}

	return &Synth{Train: gen(cfg.TrainN), Test: gen(cfg.TestN)}
}

// classPrototype draws one smooth class archetype.
func classPrototype(cfg SynthConfig, rng *rand.Rand) *tensor.Tensor {
	p := tensor.New(cfg.C, cfg.H, cfg.W)
	for c := 0; c < cfg.C; c++ {
		fx1 := 0.5 + 2.5*rng.Float64()
		fy1 := 0.5 + 2.5*rng.Float64()
		fx2 := 0.5 + 2.5*rng.Float64()
		fy2 := 0.5 + 2.5*rng.Float64()
		px, py := 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
		a := 0.6 + 0.8*rng.Float64()
		for i := 0; i < cfg.H; i++ {
			for j := 0; j < cfg.W; j++ {
				u := float64(i) / float64(cfg.H)
				v := float64(j) / float64(cfg.W)
				val := a * (math.Sin(2*math.Pi*fx1*u+px)*math.Cos(2*math.Pi*fy1*v+py) +
					0.5*math.Sin(2*math.Pi*(fx2*u+fy2*v)))
				p.Set(val, c, i, j)
			}
		}
	}
	return p
}

// shuffleDataset permutes samples and labels together.
func shuffleDataset(d *Dataset, rng *rand.Rand) {
	n := d.N()
	plane := d.SampleDim()
	tmp := make([]float64, plane)
	rng.Shuffle(n, func(i, j int) {
		xi := d.X.Data()[i*plane : (i+1)*plane]
		xj := d.X.Data()[j*plane : (j+1)*plane]
		copy(tmp, xi)
		copy(xi, xj)
		copy(xj, tmp)
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
	})
}
