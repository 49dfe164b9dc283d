package main

import (
	"math/rand"
	"time"

	"helcfl/internal/nn"
	"helcfl/internal/tensor"
)

// kernelKind is one tensor kernel family the replay times.
type kernelKind int

const (
	kMatMul kernelKind = iota
	kMatMulTransA
	kMatMulTransB
	kIm2Col
	kCol2Im
	numKernelKinds
)

// kernelCall is one tensor-kernel invocation of a local update, with its
// operands allocated, and the work it does: multiply-adds ×2 for the matmul
// family, matrix elements moved for im2col/col2im.
type kernelCall struct {
	kind kernelKind
	work float64
	run  func()
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	return tensor.New(shape...).FillUniform(rng, -1, 1)
}

func denseCalls(rng *rand.Rand, b, in, out int) []kernelCall {
	x, w, dout := randTensor(rng, b, in), randTensor(rng, in, out), randTensor(rng, b, out)
	y, dw, dx := tensor.New(b, out), tensor.New(in, out), tensor.New(b, in)
	flops := 2 * float64(b) * float64(in) * float64(out)
	return []kernelCall{
		{kMatMul, flops, func() { tensor.MatMulInto(y, x, w) }},
		{kMatMulTransA, flops, func() { tensor.MatMulTransAInto(dw, x, dout) }},
		{kMatMulTransB, flops, func() { tensor.MatMulTransBInto(dx, dout, w) }},
	}
}

func convCalls(rng *rand.Rand, b, inC, h, w, outC, kh, kw, stride, pad int) (calls []kernelCall, oh, ow int) {
	oh, ow = tensor.ConvOutSize(h, kh, stride, pad), tensor.ConvOutSize(w, kw, stride, pad)
	cols, ckk := b*oh*ow, inC*kh*kw
	x, wt, dy := randTensor(rng, b, inC, h, w), randTensor(rng, outC, ckk), randTensor(rng, outC, cols)
	col, y := tensor.New(ckk, cols), tensor.New(outC, cols)
	dw, dcol, dx := tensor.New(outC, ckk), tensor.New(ckk, cols), tensor.New(b, inC, h, w)
	flops := 2 * float64(outC) * float64(ckk) * float64(cols)
	elems := float64(ckk) * float64(cols)
	return []kernelCall{
		{kIm2Col, elems, func() { tensor.Im2ColBatchInto(col, x, kh, kw, stride, pad) }},
		{kMatMul, flops, func() { tensor.MatMulInto(y, wt, col) }},
		{kMatMulTransB, flops, func() { tensor.MatMulTransBInto(dw, dy, col) }},
		{kMatMulTransA, flops, func() { tensor.MatMulTransAInto(dcol, wt, dy) }},
		{kCol2Im, elems, func() { tensor.Col2ImBatchInto(dx, dcol, b, inC, h, w, kh, kw, stride, pad) }},
	}, oh, ow
}

// updateKernels lists the tensor kernels one forward+backward pass of the
// model makes on a batch of b samples, read off the layers' exported
// geometry. Layers that call no kernel only move the shape along.
func updateKernels(spec nn.ModelSpec, b int) []kernelCall {
	rng := rand.New(rand.NewSource(1))
	h, w := spec.H, spec.W
	var calls []kernelCall
	conv := func(inC, outC, kh, kw, stride, pad int) {
		cs, oh, ow := convCalls(rng, b, inC, h, w, outC, kh, kw, stride, pad)
		calls = append(calls, cs...)
		h, w = oh, ow
	}
	for _, l := range spec.Build(rng).Layers() {
		switch l := l.(type) {
		case *nn.Dense:
			calls = append(calls, denseCalls(rng, b, l.In, l.Out)...)
		case *nn.Conv2D:
			conv(l.InC, l.OutC, l.KH, l.KW, l.Stride, l.Pad)
		case *nn.Fire:
			// squeeze 1×1, then expand 1×1 and 3×3 (same padding) side by
			// side on the squeezed map; the outputs concatenate. None of
			// the three changes the spatial size.
			conv(l.InC, l.S, 1, 1, 1, 0)
			conv(l.S, l.E1, 1, 1, 1, 0)
			conv(l.S, l.E3, 3, 3, 1, 1)
		case *nn.MaxPool2D:
			h, w = tensor.ConvOutSize(h, l.K, l.Stride, 0), tensor.ConvOutSize(w, l.K, l.Stride, 0)
		}
	}
	return calls
}

// replayKernels times the local update's tensor kernels in isolation, at the
// shapes this workload's model and per-user batch give them. updateMs is the
// measured local-update median the kernels' share is taken of.
func replayKernels(m metrics, spec nn.ModelSpec, batch int, updateMs float64, quick bool) {
	calls := updateKernels(spec, batch)
	budget := 250 * time.Millisecond
	if quick {
		budget = 20 * time.Millisecond
	}
	var ns, work, passNs [numKernelKinds]float64
	for kind := kernelKind(0); kind < numKernelKinds; kind++ {
		passes := 0
		for t0 := time.Now(); time.Since(t0) < budget; passes++ {
			for _, c := range calls {
				if c.kind != kind {
					continue
				}
				t := time.Now()
				c.run()
				ns[kind] += float64(time.Since(t).Nanoseconds())
				work[kind] += c.work
			}
			if work[kind] == 0 {
				break // this model never calls the kernel
			}
		}
		if passes > 0 {
			passNs[kind] = ns[kind] / float64(passes)
		}
	}
	per := func(kind kernelKind) float64 {
		if work[kind] == 0 {
			return 0
		}
		return ns[kind] / work[kind]
	}
	m["tensor.matmul.ns_per_flop"] = per(kMatMul)
	m["tensor.matmul_transa.ns_per_flop"] = per(kMatMulTransA)
	m["tensor.matmul_transb.ns_per_flop"] = per(kMatMulTransB)
	m["tensor.im2col.ns_per_elem"] = per(kIm2Col)
	m["tensor.col2im.ns_per_elem"] = per(kCol2Im)
	var flops, totalNs float64
	for _, c := range calls {
		if c.kind <= kMatMulTransB {
			flops += c.work
		}
	}
	for _, v := range passNs {
		totalNs += v
	}
	m["tensor.matmul.flops_per_update"] = flops
	if updateMs > 0 {
		m["tensor.kernels.share_of_update_pct"] = 100 * totalNs / 1e6 / updateMs
	}
}

// codecMetrics times the wire codec (nn.ParamBytes / nn.LoadParamBytes) on
// this workload's model.
func codecMetrics(m metrics, spec nn.ModelSpec, quick bool) {
	model := spec.Build(rand.New(rand.NewSource(1)))
	reps := 400
	if quick {
		reps = 40
	}
	enc, dec := make([]float64, 0, reps), make([]float64, 0, reps)
	var payload []byte
	for i := 0; i < reps; i++ {
		t := time.Now()
		payload = nn.ParamBytes(model)
		enc = append(enc, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		err := nn.LoadParamBytes(model, payload)
		dec = append(dec, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			panic(err) // a model cannot fail to load its own encoding
		}
	}
	setTiming(m, "nn.encode_params.p50_us", "us", enc)
	setTiming(m, "nn.decode_params.p50_us", "us", dec)
	m["nn.param_bytes"] = float64(len(payload))
}
