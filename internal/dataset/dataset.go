// Package dataset provides the synthetic image-classification workload and
// the federated data partitioners used throughout the reproduction.
//
// The paper trains SqueezeNet on CIFAR-10. CIFAR-10 is unavailable offline,
// so SynthCIFAR substitutes a 10-class synthetic image distribution with the
// same roles: a shared test set for global accuracy, an IID partition
// (shuffle + even split), and the McMahan-style Non-IID partition (sort by
// label, cut into 400 shards, deal 4 shards per user). What the paper's
// selection experiments measure — which users' label distributions enter
// training — is preserved exactly.
package dataset

import (
	"fmt"

	"helcfl/internal/tensor"
)

// Dataset is a labelled image set with images stored as one (N, C, H, W)
// tensor.
type Dataset struct {
	X      *tensor.Tensor // (N, C, H, W)
	Labels []int
}

// N returns the number of samples.
func (d *Dataset) N() int { return len(d.Labels) }

// Channels, Height, Width return the image geometry.
func (d *Dataset) Channels() int { return d.X.Dim(1) }

// Height returns the image height.
func (d *Dataset) Height() int { return d.X.Dim(2) }

// Width returns the image width.
func (d *Dataset) Width() int { return d.X.Dim(3) }

// SampleDim returns the flattened per-sample feature count.
func (d *Dataset) SampleDim() int { return d.Channels() * d.Height() * d.Width() }

// Subset returns a new dataset holding copies of the samples at the given
// indices, in order. The index list must be non-empty.
func (d *Dataset) Subset(indices []int) *Dataset {
	if len(indices) == 0 {
		panic("dataset: Subset of empty index list")
	}
	c, h, w := d.Channels(), d.Height(), d.Width()
	plane := c * h * w
	out := &Dataset{X: tensor.New(len(indices), c, h, w), Labels: make([]int, len(indices))}
	for i, idx := range indices {
		if idx < 0 || idx >= d.N() {
			panic(fmt.Sprintf("dataset: subset index %d outside [0,%d)", idx, d.N()))
		}
		copy(out.X.Data()[i*plane:(i+1)*plane], d.X.Data()[idx*plane:(idx+1)*plane])
		out.Labels[i] = d.Labels[idx]
	}
	return out
}

// FlatX returns the images viewed as a (N, C·H·W) matrix for dense models.
// The view shares storage with X.
func (d *Dataset) FlatX() *tensor.Tensor {
	return d.X.Reshape(d.N(), d.SampleDim())
}

// LabelHistogram returns counts per class over numClasses classes.
func (d *Dataset) LabelHistogram(numClasses int) []int {
	h := make([]int, numClasses)
	for _, l := range d.Labels {
		if l < 0 || l >= numClasses {
			panic(fmt.Sprintf("dataset: label %d outside [0,%d)", l, numClasses))
		}
		h[l]++
	}
	return h
}

// DistinctLabels returns the number of classes that appear at least once.
func (d *Dataset) DistinctLabels(numClasses int) int {
	n := 0
	for _, c := range d.LabelHistogram(numClasses) {
		if c > 0 {
			n++
		}
	}
	return n
}
