package nn

import (
	"math"

	"repro/internal/tensor"
)

// MaxPool2D performs non-overlapping-or-strided max pooling over
// [B, C, H, W] tensors for a fixed per-sample geometry.
type MaxPool2D struct {
	name             string
	c, h, w          int
	kh, kw           int
	strideH, strideW int

	lastArg   []int // flat input index of each output's max, for Backward
	lastShape []int
}

// NewMaxPool2D constructs a max pooling layer for inputs of shape [B,c,h,w].
func NewMaxPool2D(name string, c, h, w, kh, kw, strideH, strideW int) *MaxPool2D {
	if c <= 0 || h <= 0 || w <= 0 || kh <= 0 || kw <= 0 || strideH <= 0 || strideW <= 0 {
		failf("nn: MaxPool2D %q non-positive geometry", name)
	}
	if kh > h || kw > w {
		failf("nn: MaxPool2D %q kernel %dx%d exceeds input %dx%d", name, kh, kw, h, w)
	}
	return &MaxPool2D{name: name, c: c, h: h, w: w, kh: kh, kw: kw, strideH: strideH, strideW: strideW}
}

// Name returns the layer name.
func (m *MaxPool2D) Name() string { return m.name }

// Config returns the construction parameters (channels, input size, kernel,
// stride); model-transformation passes use it to rebuild the layer for a
// different channel count.
func (m *MaxPool2D) Config() (c, h, w, kh, kw, strideH, strideW int) {
	return m.c, m.h, m.w, m.kh, m.kw, m.strideH, m.strideW
}

// OutH returns the pooled height.
func (m *MaxPool2D) OutH() int { return (m.h-m.kh)/m.strideH + 1 }

// OutW returns the pooled width.
func (m *MaxPool2D) OutW() int { return (m.w-m.kw)/m.strideW + 1 }

// OutShape returns the per-sample output shape [C, OutH, OutW].
func (m *MaxPool2D) OutShape() []int { return []int{m.c, m.OutH(), m.OutW()} }

// Forward max-pools each channel plane. The training pass also records
// each output's argmax for Backward.
func (m *MaxPool2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if !training {
		return m.infer(x, nil)
	}
	batch := m.checkInput(x)
	out := tensor.New(batch, m.c, m.OutH(), m.OutW())
	m.lastArg = make([]int, out.Len())
	m.lastShape = x.Shape()
	m.pool(out.Data(), x.Data(), m.lastArg)
	return out
}

func (m *MaxPool2D) infer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	batch := m.checkInput(x)
	oh, ow := m.OutH(), m.OutW()
	out := ws.take(batch, m.c, oh, ow)
	xd, od := x.Data(), out.Data()
	if m.kh != 2 || m.kw != 2 || m.strideH != 2 || m.strideW != 2 {
		m.pool(od, xd, nil)
		return out
	}
	planeIn, planeOut := m.h*m.w, oh*ow
	for p := 0; p < batch*m.c; p++ {
		pool2x2(od[p*planeOut:(p+1)*planeOut], xd[p*planeIn:(p+1)*planeIn], m.w, ow)
	}
	return out
}

// pool is the general kernel. Each window is visited in row-major order
// starting from its top-left element, and only a strictly greater value
// replaces the running max: a NaN in the first position wins its window
// and a later NaN never does. A non-nil arg receives each output's flat
// input index.
func (m *MaxPool2D) pool(od, xd []float32, arg []int) {
	w, kh, kw, sh, sw := m.w, m.kh, m.kw, m.strideH, m.strideW
	oh, ow := m.OutH(), m.OutW()
	planeIn := m.h * w
	oi := 0
	for base := 0; base < len(xd); base += planeIn {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				top := base + oy*sh*w + ox*sw
				best, bestIdx := xd[top], top
				for ky := 0; ky < kh; ky++ {
					row := top + ky*w
					for kx := 0; kx < kw; kx++ {
						if v := xd[row+kx]; v > best {
							best, bestIdx = v, row+kx
						}
					}
				}
				od[oi] = best
				if arg != nil {
					arg[oi] = bestIdx
				}
				oi++
			}
		}
	}
}

// pool2x2 max-pools one plane with a 2×2 window at stride 2, a row pair at
// a time, visiting each window as pool does. Which value wins a window
// depends on the data, so a branch on it mispredicts often; the kernel
// selects between bit patterns instead, which compiles to conditional
// moves.
func pool2x2(o, in []float32, w, ow int) {
	for oy := 0; oy*ow < len(o); oy++ {
		r0 := in[2*oy*w : 2*oy*w+2*ow]
		r1 := in[(2*oy+1)*w:][:len(r0)]
		d := o[oy*ow : oy*ow+ow]
		for i := 0; i+1 < len(r0); i += 2 {
			d[i>>1] = keepMax(keepMax(keepMax(r0[i], r0[i+1]), r1[i]), r1[i+1])
		}
	}
}

// keepMax returns v if v > best and best otherwise.
func keepMax(best, v float32) float32 {
	b, c := math.Float32bits(best), math.Float32bits(v)
	if v > best {
		b = c
	}
	return math.Float32frombits(b)
}

func (m *MaxPool2D) checkInput(x *tensor.Tensor) int {
	if x.Dims() != 4 || x.Dim(1) != m.c || x.Dim(2) != m.h || x.Dim(3) != m.w {
		failf("nn: MaxPool2D %q input shape %v, want [B %d %d %d]", m.name, x.Shape(), m.c, m.h, m.w)
	}
	return x.Dim(0)
}

// Backward routes each output gradient to the input position that won the
// max.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.lastArg == nil || len(m.lastArg) != grad.Len() {
		failf("nn: MaxPool2D %q Backward before training Forward", m.name)
	}
	dx := tensor.New(m.lastShape...)
	dd, gd := dx.Data(), grad.Data()
	for i, src := range m.lastArg {
		dd[src] += gd[i]
	}
	return dx
}

// Params returns nil: pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// Describe reports the pooling layer's cost profile (comparisons counted as
// MAC-equivalents).
func (m *MaxPool2D) Describe() Info {
	spatial := int64(m.OutH()) * int64(m.OutW())
	return Info{
		Name:                 m.name,
		Type:                 "maxpool2d",
		MACsPerSample:        int64(m.c) * spatial * int64(m.kh) * int64(m.kw),
		ActivationsPerSample: int64(m.c) * spatial,
	}
}

// GlobalAvgPool2D averages each channel plane of a [B, C, H, W] tensor down
// to a single value, producing [B, C].
type GlobalAvgPool2D struct {
	name    string
	c, h, w int
}

// NewGlobalAvgPool2D constructs a global average pooling layer.
func NewGlobalAvgPool2D(name string, c, h, w int) *GlobalAvgPool2D {
	if c <= 0 || h <= 0 || w <= 0 {
		failf("nn: GlobalAvgPool2D %q non-positive geometry", name)
	}
	return &GlobalAvgPool2D{name: name, c: c, h: h, w: w}
}

// Name returns the layer name.
func (g *GlobalAvgPool2D) Name() string { return g.name }

// Config returns the construction parameters.
func (g *GlobalAvgPool2D) Config() (c, h, w int) { return g.c, g.h, g.w }

// Forward averages each plane.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	return g.infer(x, nil)
}

func (g *GlobalAvgPool2D) infer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != g.c || x.Dim(2) != g.h || x.Dim(3) != g.w {
		failf("nn: GlobalAvgPool2D %q input shape %v, want [B %d %d %d]", g.name, x.Shape(), g.c, g.h, g.w)
	}
	batch := x.Dim(0)
	plane := g.h * g.w
	inv := 1 / float32(plane)
	out := ws.take(batch, g.c)
	xd, od := x.Data(), out.Data()
	for i := 0; i < batch*g.c; i++ {
		var s float32
		for _, v := range xd[i*plane : (i+1)*plane] {
			s += v
		}
		od[i] = s * inv
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (g *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch := grad.Dim(0)
	plane := g.h * g.w
	inv := 1 / float32(plane)
	dx := tensor.New(batch, g.c, g.h, g.w)
	gd, dd := grad.Data(), dx.Data()
	for i := 0; i < batch*g.c; i++ {
		v := gd[i] * inv
		row := dd[i*plane : (i+1)*plane]
		for j := range row {
			row[j] = v
		}
	}
	return dx
}

// Params returns nil: pooling has no parameters.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }

// Describe reports the layer's cost profile.
func (g *GlobalAvgPool2D) Describe() Info {
	return Info{
		Name:                 g.name,
		Type:                 "gap2d",
		MACsPerSample:        int64(g.c) * int64(g.h) * int64(g.w),
		ActivationsPerSample: int64(g.c),
	}
}

// Flatten reshapes [B, C, H, W] (or any ≥2-D input) to [B, F].
type Flatten struct {
	name      string
	lastShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name returns the layer name.
func (f *Flatten) Name() string { return f.name }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := f.infer(x, nil)
	if training {
		f.lastShape = x.Shape()
	}
	return out
}

func (f *Flatten) infer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	if x.Dims() < 2 {
		failf("nn: Flatten %q input shape %v, want ≥2-D", f.name, x.Shape())
	}
	batch := x.Dim(0)
	return ws.view(x, batch, x.Len()/batch)
}

// Backward restores the pre-flatten shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.lastShape == nil {
		failf("nn: Flatten %q Backward before training Forward", f.name)
	}
	return grad.Reshape(f.lastShape...)
}

// Params returns nil: flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
