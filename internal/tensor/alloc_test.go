package tensor

import (
	"math/rand"
	"testing"
)

// Alloc gates: the Into kernels are the training hot path and must not
// touch the heap in steady state. testing.AllocsPerRun pins that at zero;
// any accidental allocation (a boxed value, a grown slice, a closure
// capture) fails here before it can show up as GC pressure in a bench.

func TestIntoKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := New(33, 65), New(65, 47) // off-block shapes, below parallelMinFlops
	fillAdversarial(a, rng)
	fillAdversarial(b, rng)
	at, bt := transpose(a), transpose(b)
	dst := New(33, 47)
	x := New(3, 8, 8)
	fillAdversarial(x, rng)
	img := New(3, 8, 8)
	bx := New(4, 3, 8, 8)
	fillAdversarial(bx, rng)
	bcols := New(27, 4*64)
	bimg := New(4, 3, 8, 8)
	colSums := New(65)

	pins := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto", func() { MatMulInto(dst, a, b) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(dst, at, b) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(dst, a, bt) }},
		{"Im2ColBatchInto", func() { Im2ColBatchInto(bcols, bx, 3, 3, 1, 1) }},
		{"Col2ImBatchInto", func() { Col2ImBatchInto(bimg, bcols, 4, 3, 8, 8, 3, 3, 1, 1) }},
		{"AddColSumsInto", func() { a.AddColSumsInto(colSums) }},
		// The fit helpers alternate between two shapes inside one capacity,
		// the way a trainer's scratch alternates between users' batch sizes.
		{"Fit2", func() { dst.Fit2(7, 47); dst.Fit2(33, 47) }},
		{"Fit4", func() { bimg.Fit4(2, 3, 8, 8); bimg.Fit4(4, 3, 8, 8) }},
		{"FitShape", func() { img.FitShape(x.Shape()[1:]); img.FitShape(x.Shape()) }},
	}
	for _, pin := range pins {
		pin.fn() // warm up once outside the measured runs
		if n := testing.AllocsPerRun(50, pin.fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", pin.name, n)
		}
	}
}

// Benchmarks comparing the naive references against the tiled kernels, and
// the allocating entry points against their Into forms. CI's benchmark-smoke
// job runs these once; sizes bracket the shapes the experiment models
// actually hit.

func benchPair(b *testing.B, m, k, n int) (x, y *Tensor) {
	rng := rand.New(rand.NewSource(6))
	x, y = New(m, k), New(k, n)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	for i := range y.Data() {
		y.Data()[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	return x, y
}

func BenchmarkMatMulNaive128(b *testing.B) {
	x, y := benchPair(b, 128, 128, 128)
	for i := 0; i < b.N; i++ {
		MatMulNaive(x, y)
	}
}

func BenchmarkMatMulTiled128(b *testing.B) {
	x, y := benchPair(b, 128, 128, 128)
	for i := 0; i < b.N; i++ {
		matMul(x, y)
	}
}

func BenchmarkMatMulInto128(b *testing.B) {
	x, y := benchPair(b, 128, 128, 128)
	dst := New(128, 128)
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMulNaive512(b *testing.B) {
	x, y := benchPair(b, 512, 512, 512)
	for i := 0; i < b.N; i++ {
		MatMulNaive(x, y)
	}
}

func BenchmarkMatMulTiled512(b *testing.B) {
	x, y := benchPair(b, 512, 512, 512)
	for i := 0; i < b.N; i++ {
		matMul(x, y)
	}
}

func BenchmarkMatMulTransBNaive256(b *testing.B) {
	x, y := benchPair(b, 256, 256, 256)
	for i := 0; i < b.N; i++ {
		MatMulTransBNaive(x, y)
	}
}

func BenchmarkMatMulTransBTiled256(b *testing.B) {
	x, y := benchPair(b, 256, 256, 256)
	for i := 0; i < b.N; i++ {
		matMulTransB(x, y)
	}
}

// BenchmarkMatMulShapes times each kernel at the shapes the fl_* workloads
// feed it, single-worker so the number is the kernel's and not the
// scheduler's: MLP-128 on 192-feature inputs (40-sample local update,
// 256-sample evaluation batch), the squeezenet-mini stem on a 40-image
// batch of 8×8 positions, and fl_wide's logistic model on one user's 8
// samples, whose 10-column rows are one 8-element lane bulk plus a
// 2-element tail. mlp_logits is the evaluation batch's second layer: its
// a is a ReLU output, half zeros at random, which is what the nonzero scan
// of matMulRows sees there. a, b and dst are the stored shapes.
func BenchmarkMatMulShapes(b *testing.B) {
	cases := []struct {
		name      string
		kernel    func(dst, a, b *Tensor)
		a, b, dst [2]int
		relu      bool // zero a's negative entries
	}{
		{"mlp_eval", MatMulInto, [2]int{256, 192}, [2]int{192, 128}, [2]int{256, 128}, false},
		{"mlp_update", MatMulInto, [2]int{40, 192}, [2]int{192, 128}, [2]int{40, 128}, false},
		{"mlp_dW", MatMulTransAInto, [2]int{40, 192}, [2]int{40, 128}, [2]int{192, 128}, false},
		{"mlp_dx", MatMulTransBInto, [2]int{40, 128}, [2]int{192, 128}, [2]int{40, 192}, false},
		{"cnn_stem", MatMulInto, [2]int{16, 27}, [2]int{27, 2560}, [2]int{16, 2560}, false},
		{"cnn_dW", MatMulTransBInto, [2]int{16, 2560}, [2]int{27, 2560}, [2]int{16, 27}, false},
		{"logistic_update", MatMulInto, [2]int{8, 192}, [2]int{192, 10}, [2]int{8, 10}, false},
		{"mlp_logits", MatMulInto, [2]int{256, 128}, [2]int{128, 10}, [2]int{256, 10}, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			prev := SetWorkers(1)
			defer SetWorkers(prev)
			rng := rand.New(rand.NewSource(6))
			x := New(c.a[:]...).FillNormal(rng, 0, 1)
			if c.relu {
				for i, v := range x.data {
					x.data[i] = max(v, 0)
				}
			}
			y := New(c.b[:]...).FillNormal(rng, 0, 1)
			dst := New(c.dst[:]...)
			flops := c.a[0] * c.a[1] * c.dst[1] // every a element meets one dst row
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.kernel(dst, x, y)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(flops), "ns/flop")
		})
	}
}
