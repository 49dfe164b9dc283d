package fl

import (
	"fmt"

	"helcfl/internal/dataset"
	"helcfl/internal/nn"
	"helcfl/internal/tensor"
)

// evalBatch is Evaluate's loss batch: loss and accuracy are the means over
// consecutive 256-row batches, weighted by batch size and summed in row
// order. At one worker it is also the forward chunk.
const evalBatch = 256

// Evaluate computes loss and accuracy of a model over a dataset, batching
// the forward passes to bound peak memory. flattenInput selects the (B, D)
// view for dense models. It is the one-worker case of the engine's
// evaluation: the same chunks, the same reduction.
func Evaluate(m *nn.Sequential, d *dataset.Dataset, flattenInput bool) (loss, accuracy float64) {
	ev := newEvaluator(d, flattenInput, 1)
	ev.size(m)
	ev.forwardRange(m, 0)
	return ev.reduce()
}

// evaluator is a test set cut for a worker count w. Every nn layer on the
// product path is row-independent (see nn.Layer), so a row's logits do not
// depend on which rows share its forward pass, and any cut gives the same
// bits. The cut:
//
//   - forward chunks of at most ⌈256/w⌉ rows, so w workers together hold
//     at most one loss batch of layer scratch, as one worker did;
//   - one contiguous run of chunks per worker (a range);
//   - the logits of all N rows in one N×K buffer, which reduce walks
//     serially in 256-row loss batches, in the order and with the
//     arithmetic of a serial pass.
//
// The engine keeps one evaluator across rounds; its headers and views are
// built once, so an evaluated round allocates nothing at one worker.
type evaluator struct {
	d       *dataset.Dataset
	workers int
	chunks  []evalChunk // row order
	bounds  []int       // range r forwards chunks[bounds[r]:bounds[r+1]]

	k       int              // logits per row, set by size
	logits  []float64        // N×K, row-major
	batches []*tensor.Tensor // (bn, K) view of logits per loss batch
	loss    *nn.SoftmaxCrossEntropy
}

// evalChunk is one forward pass: rows [lo, lo+x.Dim(0)) as model input.
type evalChunk struct {
	lo int
	x  *tensor.Tensor
}

// newEvaluator cuts d for w ≥ 1 workers. Fewer chunks than workers give
// fewer ranges.
func newEvaluator(d *dataset.Dataset, flattenInput bool, w int) *evaluator {
	n, plane := d.N(), d.SampleDim()
	rows := (evalBatch + w - 1) / w
	ev := &evaluator{d: d, workers: w, loss: nn.NewSoftmaxCrossEntropy()}
	for lo := 0; lo < n; lo += rows {
		hi := min(lo+rows, n)
		data := d.X.Data()[lo*plane : hi*plane]
		var x *tensor.Tensor
		if flattenInput {
			x = tensor.FromSlice(data, hi-lo, plane)
		} else {
			x = tensor.FromSlice(data, hi-lo, d.Channels(), d.Height(), d.Width())
		}
		ev.chunks = append(ev.chunks, evalChunk{lo: lo, x: x})
	}
	ranges := min(w, len(ev.chunks))
	ev.bounds = make([]int, ranges+1)
	for r := range ev.bounds {
		ev.bounds[r] = r * len(ev.chunks) / ranges
	}
	return ev
}

// ranges returns the number of row ranges, one per worker.
func (ev *evaluator) ranges() int { return len(ev.bounds) - 1 }

// size learns K from a one-row forward of m, any model of the evaluated
// architecture, and allocates the logits and their batch views. Only the
// first call does anything; it must run before the forwards.
func (ev *evaluator) size(m *nn.Sequential) {
	if ev.logits != nil {
		return
	}
	x := ev.chunks[0].x
	shape := append([]int{1}, x.Shape()[1:]...)
	ev.k = m.Forward(tensor.FromSlice(x.Data()[:x.Size()/x.Dim(0)], shape...), false).Dim(1)
	n := ev.d.N()
	ev.logits = make([]float64, n*ev.k)
	for lo := 0; lo < n; lo += evalBatch {
		hi := min(lo+evalBatch, n)
		ev.batches = append(ev.batches, tensor.FromSlice(ev.logits[lo*ev.k:hi*ev.k], hi-lo, ev.k))
	}
}

// forwardRange runs m over range r's chunks and stores their logits. Ranges
// write disjoint rows, so workers may run them concurrently, each on its
// own model.
func (ev *evaluator) forwardRange(m *nn.Sequential, r int) {
	for _, c := range ev.chunks[ev.bounds[r]:ev.bounds[r+1]] {
		y := m.Forward(c.x, false)
		dst := ev.logits[c.lo*ev.k : (c.lo+c.x.Dim(0))*ev.k]
		if y.Rank() != 2 || y.Size() != len(dst) {
			panic(fmt.Sprintf("fl: evaluation logits shape %v, want (%d, %d)", y.Shape(), c.x.Dim(0), ev.k))
		}
		copy(dst, y.Data())
	}
}

// reduce returns the mean loss and accuracy of the stored logits, batch by
// batch in row order.
func (ev *evaluator) reduce() (loss, accuracy float64) {
	totalLoss, correct := 0.0, 0.0
	for i, logits := range ev.batches {
		bn := logits.Dim(0)
		labels := ev.d.Labels[i*evalBatch : i*evalBatch+bn]
		totalLoss += ev.loss.Forward(logits, labels) * float64(bn)
		correct += nn.Accuracy(logits, labels) * float64(bn)
	}
	n := float64(ev.d.N())
	return totalLoss / n, correct / n
}
