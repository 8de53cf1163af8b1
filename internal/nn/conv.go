package nn

import (
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, C, H, W] tensors implemented as
// im2col + matmul. The kernel weight is stored as a (outC × inC·KH·KW)
// matrix, which makes filter pruning (removing an output channel) a
// whole-row zeroing and input-channel pruning a block-column zeroing — both
// of which the sparse matmul kernel exploits.
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
	colsBuf   *tensor.Tensor   // inference scratch, reused across calls
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

// Forward convolves via im2col + matmul. The training path expands and
// multiplies per sample (Backward needs each sample's patch matrix); the
// inference path fuses the whole batch into one (C·KH·KW) × (B·OutH·OutW)
// patch matrix and runs a single blocked matmul for the layer. Per output
// element the contraction order is identical in both paths, so fused
// batched inference is bit-identical to running the samples one at a time.
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

// infer is the inference path: one matmul for the whole layer. The patch
// matrix is cached per batch width; the outputs come from ws, so only a
// pass with a workspace is allocation-free in the steady state.
func (c *Conv2D) infer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	batch := c.checkInput(x)
	g := c.geom
	oh, ow := g.OutH(), g.OutW()
	k := g.InC * g.KH * g.KW
	spatial := oh * ow
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := c.outC * spatial
	total := batch * spatial
	if c.colsBuf == nil || c.colsBuf.Dim(1) != total {
		c.colsBuf = tensor.New(k, total)
	}
	xd, bias := x.Data(), c.bias.Value.Data()
	for s := 0; s < batch; s++ {
		tensor.Im2colOffset(xd[s*sampleIn:(s+1)*sampleIn], g, c.colsBuf, s*spatial)
	}
	res := ws.take(c.outC, total)
	tensor.MatMulBlockedInto(res, c.weight.Value, c.colsBuf)
	rd := res.Data()
	if batch == 1 {
		// (outC × spatial) is already the [1, outC, oh, ow] layout.
		for oc := 0; oc < c.outC; oc++ {
			b := bias[oc]
			row := rd[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] += b
			}
		}
		return ws.view(res, 1, c.outC, oh, ow)
	}
	out := ws.take(batch, c.outC, oh, ow)
	od := out.Data()
	for s := 0; s < batch; s++ {
		base := s * sampleOut
		for oc := 0; oc < c.outC; oc++ {
			b := bias[oc]
			src := rd[oc*total+s*spatial : oc*total+(s+1)*spatial]
			dst := od[base+oc*spatial : base+(oc+1)*spatial]
			for i, v := range src {
				dst[i] = v + b
			}
		}
	}
	return out
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
