package nn

import (
	"math"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, C, H, W] tensors: im2col + matmul
// when training, a direct convolution at inference. The kernel weight is
// stored as a (outC × inC·KH·KW) matrix, which makes filter pruning
// (removing an output channel) a whole-row zeroing and input-channel
// pruning a block-column zeroing.
//
// The layer is constructed for a fixed input geometry; autonomous perception
// pipelines run a fixed camera resolution, so this costs no generality and
// lets Describe report exact MAC counts.
type Conv2D struct {
	name   string
	geom   tensor.ConvGeom
	outC   int
	weight *Param
	bias   *Param

	lastInput *tensor.Tensor
	lastCols  []*tensor.Tensor // per-sample im2col caches from training Forward
}

// NewConv2D constructs a convolution layer. geom describes the per-sample
// input; outC is the number of filters.
func NewConv2D(name string, geom tensor.ConvGeom, outC int, rng *tensor.RNG) *Conv2D {
	if err := geom.Validate(); err != nil {
		failf("nn: Conv2D %q: %v", name, err)
	}
	if outC <= 0 {
		failf("nn: Conv2D %q with non-positive outC %d", name, outC)
	}
	k := geom.InC * geom.KH * geom.KW
	return &Conv2D{
		name:   name,
		geom:   geom,
		outC:   outC,
		weight: newParam(name+"/weight", tensor.HeNormal(rng, k, outC, k), true),
		bias:   newParam(name+"/bias", tensor.New(outC), false),
	}
}

// Name returns the layer name.
func (c *Conv2D) Name() string { return c.name }

// Geom returns the convolution geometry.
func (c *Conv2D) Geom() tensor.ConvGeom { return c.geom }

// OutChannels returns the number of filters.
func (c *Conv2D) OutChannels() int { return c.outC }

// Weight returns the (outC × inC·KH·KW) weight parameter.
func (c *Conv2D) Weight() *Param { return c.weight }

// Bias returns the per-filter bias parameter.
func (c *Conv2D) Bias() *Param { return c.bias }

// OutShape returns the per-sample output shape [outC, outH, outW].
func (c *Conv2D) OutShape() []int { return []int{c.outC, c.geom.OutH(), c.geom.OutW()} }

func (c *Conv2D) checkInput(x *tensor.Tensor) int {
	g := c.geom
	if x.Dims() != 4 || x.Dim(1) != g.InC || x.Dim(2) != g.InH || x.Dim(3) != g.InW {
		failf("nn: Conv2D %q input shape %v, want [B %d %d %d]", c.name, x.Shape(), g.InC, g.InH, g.InW)
	}
	return x.Dim(0)
}

// Forward convolves the batch. The training pass expands each sample into
// an im2col patch matrix and multiplies it by the weight matrix, keeping
// the patches for Backward; the inference pass is infer's direct
// convolution. Every output element accumulates the same products in the
// same order on both paths, and a batch row equals that sample run alone,
// so fused batched inference is bit-identical to per-frame inference.
func (c *Conv2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if !training {
		return c.infer(x, nil)
	}
	batch := c.checkInput(x)
	g := c.geom
	oh, ow := g.OutH(), g.OutW()
	k := g.InC * g.KH * g.KW
	spatial := oh * ow
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := c.outC * spatial

	out := tensor.New(batch, c.outC, oh, ow)
	xd, od, bias := x.Data(), out.Data(), c.bias.Value.Data()
	c.lastInput = x
	c.lastCols = make([]*tensor.Tensor, batch)
	for s := 0; s < batch; s++ {
		cols := tensor.New(k, spatial)
		c.lastCols[s] = cols
		tensor.Im2col(xd[s*sampleIn:(s+1)*sampleIn], g, cols)
		res := tensor.MatMul(c.weight.Value, cols) // (outC × spatial)
		rd := res.Data()
		base := s * sampleOut
		for oc := 0; oc < c.outC; oc++ {
			b := bias[oc]
			src := rd[oc*spatial : (oc+1)*spatial]
			dst := od[base+oc*spatial : base+(oc+1)*spatial]
			for i, v := range src {
				dst[i] = v + b
			}
		}
	}
	return out
}

// infer is the inference path: a direct convolution over a zero-padded
// copy of the input, with no patch matrix. The padded planes and the
// output come from ws, so a pass with a workspace is allocation-free in
// the steady state.
//
// Every output element is bit-identical to the im2col + matmul path that
// training uses: the accumulator starts at +0, takes w·x for each nonzero
// weight in ascending contraction order (c, kh, kw) and then adds the bias.
// Padding is multiplied as an explicit zero, so a NaN weight on a padding
// tap still yields NaN. The 3×3 kernel also multiplies zero weights, which
// changes no bit when every input is finite: 0·x is then ±0, and adding ±0
// leaves any accumulator that is not −0 unchanged, while one that starts
// at +0 can never become −0. A batch with a non-finite input skips zero
// weights instead. The batch loop runs inside the output-channel loop, so
// a fused batch reads each filter once.
func (c *Conv2D) infer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	batch := c.checkInput(x)
	g := c.geom
	oh, ow := g.OutH(), g.OutW()
	ph, pw := g.InH+2*g.PadH, g.InW+2*g.PadW
	padded := ws.take(batch, g.InC, ph, pw)
	finite := padPlanes(padded.Data(), x.Data(), g)
	out := ws.take(batch, c.outC, oh, ow)
	k := g.InC * g.KH * g.KW
	spatial, plane := oh*ow, ph*pw
	sampleIn := g.InC * plane
	pd, od := padded.Data(), out.Data()
	wd, bias := c.weight.Value.Data(), c.bias.Value.Data()
	unrolled := finite && g.KH == 3 && g.KW == 3 && g.StrideW == 1
	for oc := 0; oc < c.outC; oc++ {
		w := wd[oc*k : (oc+1)*k]
		b := bias[oc]
		for s := 0; s < batch; s++ {
			dst := od[(s*c.outC+oc)*spatial : (s*c.outC+oc+1)*spatial]
			src := pd[s*sampleIn : (s+1)*sampleIn]
			if !unrolled {
				convTaps(dst, src, w, g, ph, pw, ow, b)
				continue
			}
			for ic := 0; ic < g.InC; ic++ {
				conv3x3(dst, src[ic*plane:(ic+1)*plane], w[ic*9:ic*9+9], pw, ow, g.StrideH, ic == 0, ic == g.InC-1, b)
			}
		}
	}
	return out
}

// padPlanes copies every [C, H, W] sample of src into dst, laid out as
// [C, H+2·PadH, W+2·PadW] planes with zero borders, and reports whether
// every input value is finite.
func padPlanes(dst, src []float32, g tensor.ConvGeom) bool {
	pw := g.InW + 2*g.PadW
	var nonFinite uint32
	di, si := 0, 0
	for di < len(dst) {
		for y := -g.PadH; y < g.InH+g.PadH; y++ {
			row := dst[di : di+pw]
			di += pw
			if y < 0 || y >= g.InH {
				clear(row)
				continue
			}
			clear(row[:g.PadW])
			clear(row[g.PadW+g.InW:])
			in := src[si : si+g.InW]
			si += g.InW
			for i, v := range in {
				row[g.PadW+i] = v
				// The exponent is all ones only for ±Inf and NaN.
				nonFinite |= (math.Float32bits(v)>>23&0xff + 1) >> 8
			}
		}
	}
	return nonFinite == 0
}

// conv3x3 adds one padded input plane's 3×3 taps into dst at a horizontal
// stride of 1, four output pixels per pass with the nine weights in
// locals. The first plane starts each accumulator at +0; the last adds the
// bias. Between planes the partial sums rest in dst, which is exact.
func conv3x3(dst, plane, w []float32, pw, ow, strideH int, first, last bool, bias float32) {
	w0, w1, w2 := w[0], w[1], w[2]
	w3, w4, w5 := w[3], w[4], w[5]
	w6, w7, w8 := w[6], w[7], w[8]
	for oy := 0; oy*ow < len(dst); oy++ {
		top := oy * strideH * pw
		r0 := plane[top : top+pw]
		r1 := plane[top+pw : top+2*pw]
		r2 := plane[top+2*pw : top+3*pw]
		d := dst[oy*ow : oy*ow+ow]
		ox := 0
		for ; ox+4 <= ow; ox += 4 {
			a := (*[6]float32)(r0[ox : ox+6])
			m := (*[6]float32)(r1[ox : ox+6])
			z := (*[6]float32)(r2[ox : ox+6])
			o := (*[4]float32)(d[ox : ox+4])
			var s0, s1, s2, s3 float32
			if !first {
				s0, s1, s2, s3 = o[0], o[1], o[2], o[3]
			}
			s0 += w0 * a[0]
			s1 += w0 * a[1]
			s2 += w0 * a[2]
			s3 += w0 * a[3]
			s0 += w1 * a[1]
			s1 += w1 * a[2]
			s2 += w1 * a[3]
			s3 += w1 * a[4]
			s0 += w2 * a[2]
			s1 += w2 * a[3]
			s2 += w2 * a[4]
			s3 += w2 * a[5]
			s0 += w3 * m[0]
			s1 += w3 * m[1]
			s2 += w3 * m[2]
			s3 += w3 * m[3]
			s0 += w4 * m[1]
			s1 += w4 * m[2]
			s2 += w4 * m[3]
			s3 += w4 * m[4]
			s0 += w5 * m[2]
			s1 += w5 * m[3]
			s2 += w5 * m[4]
			s3 += w5 * m[5]
			s0 += w6 * z[0]
			s1 += w6 * z[1]
			s2 += w6 * z[2]
			s3 += w6 * z[3]
			s0 += w7 * z[1]
			s1 += w7 * z[2]
			s2 += w7 * z[3]
			s3 += w7 * z[4]
			s0 += w8 * z[2]
			s1 += w8 * z[3]
			s2 += w8 * z[4]
			s3 += w8 * z[5]
			if last {
				s0, s1, s2, s3 = s0+bias, s1+bias, s2+bias, s3+bias
			}
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
		for ; ox < ow; ox++ {
			var s float32
			if !first {
				s = d[ox]
			}
			s += w0 * r0[ox]
			s += w1 * r0[ox+1]
			s += w2 * r0[ox+2]
			s += w3 * r1[ox]
			s += w4 * r1[ox+1]
			s += w5 * r1[ox+2]
			s += w6 * r2[ox]
			s += w7 * r2[ox+1]
			s += w8 * r2[ox+2]
			if last {
				s += bias
			}
			d[ox] = s
		}
	}
}

// convTaps is the general kernel for one sample and filter: any geometry,
// any input. Each output pixel walks the filter in contraction order and
// skips zero weights, as the sparse matmul does.
func convTaps(dst, src, w []float32, g tensor.ConvGeom, ph, pw, ow int, bias float32) {
	plane := ph * pw
	for i := range dst {
		base := (i/ow)*g.StrideH*pw + (i%ow)*g.StrideW
		var acc float32
		p := 0
		for ic := 0; ic < g.InC; ic++ {
			for kh := 0; kh < g.KH; kh++ {
				row := src[ic*plane+base+kh*pw:]
				for kw := 0; kw < g.KW; kw++ {
					if wv := w[p]; wv != 0 { //lint:allow(floateq) sparse skip: pruned weights are exact zeros
						acc += wv * row[kw]
					}
					p++
				}
			}
		}
		dst[i] = acc + bias
	}
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastInput == nil || c.lastCols == nil {
		failf("nn: Conv2D %q Backward before training Forward", c.name)
	}
	batch := c.checkInput(c.lastInput)
	g := c.geom
	oh, ow := g.OutH(), g.OutW()
	spatial := oh * ow
	if grad.Dims() != 4 || grad.Dim(0) != batch || grad.Dim(1) != c.outC || grad.Dim(2) != oh || grad.Dim(3) != ow {
		failf("nn: Conv2D %q grad shape %v, want [%d %d %d %d]", c.name, grad.Shape(), batch, c.outC, oh, ow)
	}
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := c.outC * spatial

	dx := tensor.New(batch, g.InC, g.InH, g.InW)
	gd, dxd, bg := grad.Data(), dx.Data(), c.bias.Grad.Data()
	for s := 0; s < batch; s++ {
		gSample := tensor.FromSlice(gd[s*sampleOut:(s+1)*sampleOut], c.outC, spatial)
		// dW += gSample (outC×spatial) · colsᵀ (spatial×k)
		dW := tensor.MatMulTransB(gSample, c.lastCols[s])
		tensor.AddInPlace(c.weight.Grad, dW)
		// db += row sums of gSample.
		for oc := 0; oc < c.outC; oc++ {
			var sum float32
			for _, v := range gd[s*sampleOut+oc*spatial : s*sampleOut+(oc+1)*spatial] {
				sum += v
			}
			bg[oc] += sum
		}
		// dcols = Wᵀ (k×outC) · gSample (outC×spatial), then scatter back.
		dcols := tensor.MatMulTransA(c.weight.Value, gSample)
		tensor.Col2im(dcols, g, dxd[s*sampleIn:(s+1)*sampleIn])
	}
	return dx
}

// Params returns the weight and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Describe reports the convolution's cost profile.
func (c *Conv2D) Describe() Info {
	g := c.geom
	k := int64(g.InC) * int64(g.KH) * int64(g.KW)
	spatial := int64(g.OutH()) * int64(g.OutW())
	return Info{
		Name:                 c.name,
		Type:                 "conv2d",
		ParamCount:           k*int64(c.outC) + int64(c.outC),
		MACsPerSample:        k * int64(c.outC) * spatial,
		ActivationsPerSample: int64(c.outC) * spatial,
	}
}
