package nn

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/tensor"
)

// Differential fuzzers for the inference kernels of Conv2D and MaxPool2D.
// The oracles below are the kernels inference ran before the direct
// convolution and the dedicated pool kernel: im2col, the serial zero-skip
// matmul and a bias add; and the generic pool loop. Every output must
// match them bit for bit, except that a NaN need only match a NaN: x86
// returns the first NaN operand, and which operand is first is the
// compiler's register choice.

// oracleConv is the im2col + serial zero-skip matmul + bias convolution.
func oracleConv(c *Conv2D, x *tensor.Tensor) []float32 {
	g := c.geom
	batch := x.Dim(0)
	k := g.InC * g.KH * g.KW
	spatial := g.OutH() * g.OutW()
	sampleIn := g.InC * g.InH * g.InW
	xd, wd, bias := x.Data(), c.weight.Value.Data(), c.bias.Value.Data()
	out := make([]float32, batch*c.outC*spatial)
	for s := 0; s < batch; s++ {
		cols := tensor.New(k, spatial)
		tensor.Im2col(xd[s*sampleIn:(s+1)*sampleIn], g, cols)
		bd := cols.Data()
		res := make([]float32, c.outC*spatial)
		for i := 0; i < c.outC; i++ {
			arow := wd[i*k : (i+1)*k]
			orow := res[i*spatial : (i+1)*spatial]
			for p, av := range arow {
				if av == 0 {
					continue
				}
				brow := bd[p*spatial : (p+1)*spatial]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
		base := s * c.outC * spatial
		for oc := 0; oc < c.outC; oc++ {
			b := bias[oc]
			for i, v := range res[oc*spatial : (oc+1)*spatial] {
				out[base+oc*spatial+i] = v + b
			}
		}
	}
	return out
}

// oraclePool is the generic max-pool loop.
func oraclePool(m *MaxPool2D, x *tensor.Tensor) []float32 {
	batch := x.Dim(0)
	oh, ow := m.OutH(), m.OutW()
	xd := x.Data()
	od := make([]float32, batch*m.c*oh*ow)
	planeIn := m.h * m.w
	oi := 0
	for s := 0; s < batch; s++ {
		for c := 0; c < m.c; c++ {
			base := (s*m.c + c) * planeIn
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					iy0, ix0 := oy*m.strideH, ox*m.strideW
					best := xd[base+iy0*m.w+ix0]
					for ky := 0; ky < m.kh; ky++ {
						rowBase := base + (iy0+ky)*m.w
						for kx := 0; kx < m.kw; kx++ {
							idx := rowBase + ix0 + kx
							if xd[idx] > best {
								best = xd[idx]
							}
						}
					}
					od[oi] = best
					oi++
				}
			}
		}
	}
	return od
}

// fuzzValues decodes fuzz bytes into float32s drawn from a palette that
// holds ±0, NaN, ±Inf and small exact values whose products can cancel to
// an exact zero.
type fuzzValues struct {
	raw []byte
	i   int
}

func (f *fuzzValues) next(finite bool) float32 {
	var b byte
	if len(f.raw) > 0 {
		b = f.raw[f.i%len(f.raw)] ^ byte(f.i/len(f.raw)*97)
	}
	f.i++
	code := b % 16
	if finite && code >= 2 && code <= 4 {
		code += 8
	}
	switch code {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(math.NaN())
	case 3:
		return float32(math.Inf(1))
	case 4:
		return float32(math.Inf(-1))
	case 5:
		return 1
	case 6:
		return -1
	}
	return float32(int(b)-128) / 8
}

func (f *fuzzValues) fill(d []float32, finite bool) {
	for i := range d {
		d[i] = f.next(finite)
	}
}

func sameOrBothNaN(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

func checkAgainstOracle(t *testing.T, what string, got *tensor.Tensor, want []float32) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d outputs, oracle %d", what, got.Len(), len(want))
	}
	for i, v := range got.Data() {
		if !sameOrBothNaN(v, want[i]) {
			t.Fatalf("%s: output %d = %v (%#08x), oracle %v (%#08x)",
				what, i, v, math.Float32bits(v), want[i], math.Float32bits(want[i]))
		}
	}
}

// sampleOf copies sample s of a batch into a batch-1 tensor.
func sampleOf(x *tensor.Tensor, s int) *tensor.Tensor {
	n := x.Len() / x.Dim(0)
	shape := append([]int{1}, x.Shape()[1:]...)
	return tensor.FromSlice(append([]float32(nil), x.Data()[s*n:(s+1)*n]...), shape...)
}

// Conv fuzz shape bits: 0–2 InC−1, 3–7 InH, 8–12 InW (each 1 + bits%17),
// 13–14 KH, 15–16 KW (each 1 + bits%3), 17 StrideH−1, 18 StrideW−1,
// 19 PadH, 20 PadW, 21–22 outC−1, 23 finite inputs, 24 finite weights,
// 25 zero one whole filter, 26 zero one weight per filter.
func convShape(inC, inH, inW, kh, kw, sh, sw, ph, pw, outC int, finiteX, finiteW, zeroRow, zeroTap bool) uint32 {
	s := uint32(inC-1) | uint32(inH-1)<<3 | uint32(inW-1)<<8 | uint32(kh-1)<<13 | uint32(kw-1)<<15 |
		uint32(sh-1)<<17 | uint32(sw-1)<<18 | uint32(ph)<<19 | uint32(pw)<<20 | uint32(outC-1)<<21
	for i, on := range []bool{finiteX, finiteW, zeroRow, zeroTap} {
		if on {
			s |= 1 << (23 + i)
		}
	}
	return s
}

func FuzzConv2DInfer(f *testing.F) {
	ramp := make([]byte, 64)
	for i := range ramp {
		ramp[i] = byte(i * 29)
	}
	// The obstacle and sign nets' conv1 and the sign net's conv2.
	f.Add(convShape(1, 16, 16, 3, 3, 1, 1, 1, 1, 4, true, true, false, false), ramp)
	f.Add(convShape(8, 8, 8, 3, 3, 1, 1, 1, 1, 3, true, true, true, true), ramp)
	// Non-finite inputs and weights, zero filters and zero taps.
	f.Add(convShape(1, 16, 16, 3, 3, 1, 1, 1, 1, 4, false, false, true, true), ramp)
	f.Add(convShape(2, 7, 9, 3, 3, 1, 1, 1, 1, 2, false, true, false, true), []byte{2, 3, 4, 0, 1, 5, 6})
	f.Add(convShape(2, 7, 9, 3, 3, 1, 1, 1, 1, 2, true, false, false, false), []byte{2, 3, 4, 0, 1, 5, 6})
	// Stride 2, no padding, sizes the stride does not divide, non-square kernels.
	f.Add(convShape(3, 9, 10, 3, 3, 2, 2, 0, 0, 2, true, true, false, true), ramp)
	f.Add(convShape(2, 5, 11, 2, 3, 1, 2, 1, 0, 3, false, false, false, false), ramp)
	f.Add(convShape(1, 4, 4, 1, 1, 1, 1, 0, 0, 1, true, true, false, false), []byte{5, 6})
	// Weights −1, bias −0, inputs +0: every product is −0 and the result
	// is +0 only if the accumulator starts at +0.
	negZero := func(last byte) []byte {
		raw := append(bytes.Repeat([]byte{6}, 9), 1)
		raw = append(raw, make([]byte, 3*4*4-1)...)
		return append(raw, last)
	}
	f.Add(convShape(1, 4, 4, 3, 3, 1, 1, 1, 1, 1, true, true, false, false), negZero(0))
	f.Add(convShape(1, 4, 4, 3, 3, 1, 1, 1, 1, 1, false, true, false, false), negZero(2)) // the last input is NaN
	f.Fuzz(func(t *testing.T, shape uint32, raw []byte) {
		bits := func(lo, n uint) int { return int(shape >> lo & (1<<n - 1)) }
		g := tensor.ConvGeom{
			InC: 1 + bits(0, 3), InH: 1 + bits(3, 5)%17, InW: 1 + bits(8, 5)%17,
			KH: 1 + bits(13, 2)%3, KW: 1 + bits(15, 2)%3,
			StrideH: 1 + bits(17, 1), StrideW: 1 + bits(18, 1),
			PadH: bits(19, 1), PadW: bits(20, 1),
		}
		if g.Validate() != nil {
			return
		}
		outC := 1 + bits(21, 2)
		finiteX, finiteW := shape&(1<<23) != 0, shape&(1<<24) != 0
		c := NewConv2D("c", g, outC, tensor.NewRNG(1))
		vals := &fuzzValues{raw: raw}
		wd := c.weight.Value.Data()
		vals.fill(wd, finiteW)
		vals.fill(c.bias.Value.Data(), finiteW)
		k := g.InC * g.KH * g.KW
		if shape&(1<<25) != 0 {
			clear(wd[(outC-1)*k : outC*k])
		}
		if shape&(1<<26) != 0 {
			for oc := 0; oc < outC; oc++ {
				wd[oc*k+(oc*7)%k] = 0
			}
		}
		x3 := tensor.New(3, g.InC, g.InH, g.InW)
		vals.fill(x3.Data(), finiteX)

		var ws Workspace
		for _, x := range []*tensor.Tensor{sampleOf(x3, 0), x3, sampleOf(x3, 2), sampleOf(x3, 1)} {
			ws.reset()
			got := c.infer(x, &ws)
			checkAgainstOracle(t, "Conv2D infer", got, oracleConv(c, x))
		}
	})
}

// Pool fuzz shape bits: 0–1 C−1, 2–5 H, 6–9 W (each 1 + bits%12),
// 10–11 KH, 12–13 KW (each 1 + bits%3), 14–15 StrideH, 16–17 StrideW
// (each 1 + bits%3), 18 force the 2×2/stride-2 window, 19 finite inputs.
func poolShape(c, h, w, kh, kw, sh, sw int, force2x2, finite bool) uint32 {
	s := uint32(c-1) | uint32(h-1)<<2 | uint32(w-1)<<6 | uint32(kh-1)<<10 | uint32(kw-1)<<12 |
		uint32(sh-1)<<14 | uint32(sw-1)<<16
	if force2x2 {
		s |= 1 << 18
	}
	if finite {
		s |= 1 << 19
	}
	return s
}

func FuzzMaxPool2DInfer(f *testing.F) {
	ramp := make([]byte, 48)
	for i := range ramp {
		ramp[i] = byte(i * 53)
	}
	f.Add(poolShape(4, 12, 12, 2, 2, 2, 2, true, true), ramp)
	f.Add(poolShape(3, 9, 7, 2, 2, 2, 2, true, false), ramp)
	// NaN first in a window wins it; a later NaN never does.
	f.Add(poolShape(1, 2, 2, 2, 2, 2, 2, true, false), []byte{2, 5, 6, 0})
	f.Add(poolShape(1, 2, 2, 2, 2, 2, 2, true, false), []byte{5, 2, 6, 2})
	// ±0 ties keep the first.
	f.Add(poolShape(1, 2, 2, 2, 2, 2, 2, true, false), []byte{1, 0, 0, 1})
	f.Add(poolShape(1, 3, 3, 3, 3, 1, 1, false, false), append([]byte{1}, make([]byte, 26)...))
	// Overlapping windows and sizes the stride does not divide.
	f.Add(poolShape(2, 7, 8, 3, 3, 1, 2, false, false), ramp)
	f.Add(poolShape(2, 11, 5, 3, 2, 2, 3, false, true), ramp)
	f.Fuzz(func(t *testing.T, shape uint32, raw []byte) {
		bits := func(lo, n uint) int { return int(shape >> lo & (1<<n - 1)) }
		c, h, w := 1+bits(0, 2), 1+bits(2, 4)%12, 1+bits(6, 4)%12
		kh, kw := 1+bits(10, 2)%3, 1+bits(12, 2)%3
		sh, sw := 1+bits(14, 2)%3, 1+bits(16, 2)%3
		if shape&(1<<18) != 0 {
			kh, kw, sh, sw = 2, 2, 2, 2
		}
		if kh > h || kw > w {
			return
		}
		m := NewMaxPool2D("p", c, h, w, kh, kw, sh, sw)
		x3 := tensor.New(3, c, h, w)
		(&fuzzValues{raw: raw}).fill(x3.Data(), shape&(1<<19) != 0)

		var ws Workspace
		for _, x := range []*tensor.Tensor{sampleOf(x3, 0), x3, sampleOf(x3, 2)} {
			ws.reset()
			got := m.infer(x, &ws)
			checkAgainstOracle(t, "MaxPool2D infer", got, oraclePool(m, x))
			checkAgainstOracle(t, "MaxPool2D training Forward", m.Forward(x, true), oraclePool(m, x))
		}
	})
}
