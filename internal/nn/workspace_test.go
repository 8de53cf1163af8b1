package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// everyLayerModel stacks one of each layer type, so Infer's buffer reuse is
// checked against Forward for all of them.
func everyLayerModel() *Sequential {
	rng := tensor.NewRNG(3)
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	bn := NewBatchNorm("bn", 3)
	bn.SetRunningStats([]float32{0.1, -0.2, 0.3}, []float32{0.5, 2, 1.5})
	m := NewSequential("every",
		NewConv2D("conv", g, 3, rng),
		bn,
		NewReLU("relu"),
		NewMaxPool2D("pool", 3, 6, 6, 2, 2, 2, 2),
		NewLeakyReLU("leaky", 0.1),
		NewDropout("drop", 0.5, rng),
		NewGlobalAvgPool2D("gap", 3, 3, 3),
		NewFlatten("flat"),
		NewDense("fc", 3, 5, rng),
		NewTanh("tanh"),
		NewSoftmax("soft"),
	)
	for _, p := range m.Params() {
		if !p.Prunable { // nonzero biases and affine terms
			copy(p.Value.Data(), tensor.RandNormal(rng, 0, 1, p.Value.Len()).Data())
		}
	}
	return m
}

func sameBits(a, b *tensor.Tensor) bool {
	if !tensor.SameShape(a, b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestInferMatchesForward runs batch widths 1 and 3 alternately through one
// workspace: every pass must equal Forward bit for bit, so a buffer that
// keeps a stale element, or one handed out for the wrong shape, fails.
// Each row of a batch must also equal that sample's single-frame pass,
// which takes Conv2D's other output path.
func TestInferMatchesForward(t *testing.T) {
	m := everyLayerModel()
	rng := tensor.NewRNG(4)
	var ws Workspace
	for pass, batch := range []int{1, 1, 3, 1, 3} {
		x := tensor.RandNormal(rng, float32(pass%2), 2, batch, 2, 6, 6)
		got, want := m.Infer(x, &ws), m.Forward(x, false)
		if !sameBits(got, want) {
			t.Fatalf("pass %d batch %d: Infer %v, Forward %v", pass, batch, got, want)
		}
		sample := x.Len() / batch
		for s := 0; s < batch; s++ {
			one := tensor.FromSlice(append([]float32(nil), x.Data()[s*sample:(s+1)*sample]...), 1, 2, 6, 6)
			row := tensor.FromSlice(append([]float32(nil), got.Data()[s*5:(s+1)*5]...), 1, 5)
			if single := m.Forward(one, false); !sameBits(row, single) {
				t.Fatalf("pass %d: batch row %d %v, single-frame pass %v", pass, s, row, single)
			}
		}
	}
}

// TestInferSteadyStateAllocatesNothing: once the workspace has seen the
// input shape, a pass allocates nothing.
func TestInferSteadyStateAllocatesNothing(t *testing.T) {
	m := everyLayerModel()
	x := tensor.RandNormal(tensor.NewRNG(5), 0, 1, 1, 2, 6, 6)
	var ws Workspace
	m.Infer(x, &ws)
	if allocs := testing.AllocsPerRun(100, func() { m.Infer(x, &ws) }); allocs != 0 {
		t.Fatalf("Infer allocates %.1f/op in the steady state, want 0", allocs)
	}
}

// TestReLUInferOverwritesBuffer: a reused buffer must not keep the last
// pass's positives where this pass has zeros, negatives or NaN.
func TestReLUInferOverwritesBuffer(t *testing.T) {
	r := NewReLU("r")
	var ws Workspace
	ws.reset()
	r.infer(tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4), &ws)
	ws.reset()
	nan := float32(math.NaN())
	got := r.infer(tensor.FromSlice([]float32{-1, 0, nan, 5}, 1, 4), &ws)
	want := []float32{0, 0, 0, 5}
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("ReLU infer = %v, want %v", got.Data(), want)
		}
	}
}
