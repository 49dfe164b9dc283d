package metrics

import (
	"fmt"
	"strings"

	"helcfl/internal/dataset"
	"helcfl/internal/nn"
	"helcfl/internal/tensor"
)

// Confusion is a numClasses×numClasses confusion matrix: rows are true
// labels, columns are predictions.
type Confusion struct {
	Classes int
	Counts  [][]int
}

// NewConfusion returns an empty matrix.
func NewConfusion(classes int) *Confusion {
	if classes <= 0 {
		panic(fmt.Sprintf("metrics: non-positive class count %d", classes))
	}
	c := &Confusion{Classes: classes, Counts: make([][]int, classes)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, classes)
	}
	return c
}

// Observe adds one (true, predicted) pair.
func (c *Confusion) Observe(trueLabel, predicted int) {
	if trueLabel < 0 || trueLabel >= c.Classes || predicted < 0 || predicted >= c.Classes {
		panic(fmt.Sprintf("metrics: observation (%d, %d) outside %d classes", trueLabel, predicted, c.Classes))
	}
	c.Counts[trueLabel][predicted]++
}

// Total returns the number of observations.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Accuracy returns the trace fraction (0 for an empty matrix).
func (c *Confusion) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	diag := 0
	for i := range c.Counts {
		diag += c.Counts[i][i]
	}
	return float64(diag) / float64(total)
}

// Recall returns per-class recall (diagonal over row sum); classes with no
// observations report 0.
func (c *Confusion) Recall(class int) float64 {
	row := c.Counts[class]
	sum := 0
	for _, v := range row {
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return float64(row[class]) / float64(sum)
}

// String renders the matrix with per-class recall.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confusion (%d classes, %d samples, accuracy %.2f%%)\n",
		c.Classes, c.Total(), c.Accuracy()*100)
	for i, row := range c.Counts {
		fmt.Fprintf(&b, "  true %2d:", i)
		for _, v := range row {
			fmt.Fprintf(&b, " %4d", v)
		}
		fmt.Fprintf(&b, "   recall %.2f\n", c.Recall(i))
	}
	return b.String()
}

// ConfusionOf evaluates a model over a dataset and returns its confusion
// matrix. flattenInput selects the (B, D) view for dense models.
func ConfusionOf(m *nn.Sequential, d *dataset.Dataset, classes int, flattenInput bool) *Confusion {
	const batch = 256
	c := NewConfusion(classes)
	n := d.N()
	plane := d.SampleDim()
	for off := 0; off < n; off += batch {
		end := off + batch
		if end > n {
			end = n
		}
		bn := end - off
		var x *tensor.Tensor
		if flattenInput {
			x = tensor.FromSlice(d.X.Data()[off*plane:end*plane], bn, plane)
		} else {
			x = tensor.FromSlice(d.X.Data()[off*plane:end*plane], bn, d.Channels(), d.Height(), d.Width())
		}
		logits := m.Forward(x, false)
		ld := logits.Data()
		k := logits.Dim(1)
		for i := 0; i < bn; i++ {
			row := ld[i*k : (i+1)*k]
			arg, best := 0, row[0]
			for j, v := range row[1:] {
				if v > best {
					arg, best = j+1, v
				}
			}
			c.Observe(d.Labels[off+i], arg)
		}
	}
	return c
}
