package nn

import (
	"fmt"
	"math"

	"helcfl/internal/tensor"
)

// SoftmaxCrossEntropy is the fused softmax + cross-entropy loss used for
// classification. Fusing keeps the backward pass numerically trivial:
// d(logits) = (softmax(logits) - onehot(labels)) / B.
type SoftmaxCrossEntropy struct {
	probs   *tensor.Tensor
	labels  []int
	dlogits *tensor.Tensor // scratch reused across steps (see scratch.go)
}

// NewSoftmaxCrossEntropy returns the loss.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward computes mean cross-entropy over the batch. logits has shape
// (B, K); labels holds B class indices in [0, K).
func (s *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) float64 {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy logits shape %v, want rank 2", logits.Shape()))
	}
	b, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), b))
	}
	s.probs = ensure2(s.probs, b, k)
	s.labels = labels
	ld, pd := logits.Data(), s.probs.Data()
	loss := 0.0
	for i := 0; i < b; i++ {
		row := ld[i*k : (i+1)*k]
		prow := pd[i*k : (i+1)*k]
		// Numerically stable softmax via max subtraction.
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - m)
			prow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range prow {
			prow[j] *= inv
		}
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d outside [0,%d)", y, k))
		}
		p := prow[y]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	return loss / float64(b)
}

// Backward returns d(loss)/d(logits) for the last Forward call.
func (s *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	if s.probs == nil {
		panic("nn: SoftmaxCrossEntropy backward before forward")
	}
	b, k := s.probs.Dim(0), s.probs.Dim(1)
	s.dlogits = ensure2(s.dlogits, b, k)
	dd := s.dlogits.Data()
	copy(dd, s.probs.Data())
	inv := 1 / float64(b)
	for i, y := range s.labels {
		dd[i*k+y] -= 1
	}
	for i := range dd {
		dd[i] *= inv
	}
	return s.dlogits
}

// Accuracy returns the fraction of rows of logits (B, K) whose argmax equals
// the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: Accuracy logits shape %v, want rank 2", logits.Shape()))
	}
	b, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), b))
	}
	if b == 0 {
		return 0
	}
	ld := logits.Data()
	correct := 0
	for i := 0; i < b; i++ {
		row := ld[i*k : (i+1)*k]
		arg, best := 0, row[0]
		for j, v := range row[1:] {
			if v > best {
				arg, best = j+1, v
			}
		}
		if arg == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(b)
}
