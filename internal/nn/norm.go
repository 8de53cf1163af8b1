package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm normalizes activations per feature (2-D [B, F] inputs) or per
// channel (4-D [B, C, H, W] inputs), with learned affine scale and shift and
// running statistics for inference.
type BatchNorm struct {
	name     string
	features int
	momentum float32
	eps      float32

	gamma *Param
	beta  *Param

	runningMean []float32
	runningVar  []float32

	// Caches from the training forward pass.
	lastXHat  *tensor.Tensor
	lastStd   []float32
	lastShape []int
	lastN     int
}

// NewBatchNorm constructs a batch normalization layer over the given number
// of features (channels for 4-D inputs).
func NewBatchNorm(name string, features int) *BatchNorm {
	if features <= 0 {
		failf("nn: BatchNorm %q non-positive features %d", name, features)
	}
	b := &BatchNorm{
		name:        name,
		features:    features,
		momentum:    0.9,
		eps:         1e-5,
		gamma:       newParam(name+"/gamma", tensor.Ones(features), false),
		beta:        newParam(name+"/beta", tensor.New(features), false),
		runningMean: make([]float32, features),
		runningVar:  make([]float32, features),
	}
	for i := range b.runningVar {
		b.runningVar[i] = 1
	}
	return b
}

// Name returns the layer name.
func (b *BatchNorm) Name() string { return b.name }

// Features returns the normalized feature count.
func (b *BatchNorm) Features() int { return b.features }

// geometry returns the per-feature stride layout: n samples of the feature
// axis, each feature repeated plane times contiguously.
func (b *BatchNorm) geometry(x *tensor.Tensor) (batch, plane int) {
	switch x.Dims() {
	case 2:
		if x.Dim(1) != b.features {
			failf("nn: BatchNorm %q input shape %v, want [B %d]", b.name, x.Shape(), b.features)
		}
		return x.Dim(0), 1
	case 4:
		if x.Dim(1) != b.features {
			failf("nn: BatchNorm %q input shape %v, want [B %d H W]", b.name, x.Shape(), b.features)
		}
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	default:
		failf("nn: BatchNorm %q input shape %v, want 2-D or 4-D", b.name, x.Shape())
		return 0, 0 // unreachable: failf always panics
	}
}

// Forward normalizes with batch statistics when training, running statistics
// otherwise.
func (b *BatchNorm) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if !training {
		return b.infer(x, nil)
	}
	batch, plane := b.geometry(x)
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	g, be := b.gamma.Value.Data(), b.beta.Value.Data()
	stride := b.features * plane

	n := batch * plane
	if n < 2 {
		failf("nn: BatchNorm %q needs ≥2 samples per feature in training, got %d", b.name, n)
	}
	b.lastXHat = tensor.New(x.Shape()...)
	b.lastStd = make([]float32, b.features)
	b.lastShape = x.Shape()
	b.lastN = n
	xh := b.lastXHat.Data()
	invN := 1 / float32(n)

	for f := 0; f < b.features; f++ {
		var mean float32
		for s := 0; s < batch; s++ {
			base := s*stride + f*plane
			for i := 0; i < plane; i++ {
				mean += xd[base+i]
			}
		}
		mean *= invN
		var variance float32
		for s := 0; s < batch; s++ {
			base := s*stride + f*plane
			for i := 0; i < plane; i++ {
				d := xd[base+i] - mean
				variance += d * d
			}
		}
		variance *= invN
		std := float32(math.Sqrt(float64(variance) + float64(b.eps)))
		b.lastStd[f] = std
		invStd := 1 / std
		for s := 0; s < batch; s++ {
			base := s*stride + f*plane
			for i := 0; i < plane; i++ {
				h := (xd[base+i] - mean) * invStd
				xh[base+i] = h
				od[base+i] = g[f]*h + be[f]
			}
		}
		b.runningMean[f] = b.momentum*b.runningMean[f] + (1-b.momentum)*mean
		b.runningVar[f] = b.momentum*b.runningVar[f] + (1-b.momentum)*variance
	}
	return out
}

func (b *BatchNorm) infer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	batch, plane := b.geometry(x)
	out := ws.like(x)
	xd, od := x.Data(), out.Data()
	g, be := b.gamma.Value.Data(), b.beta.Value.Data()
	stride := b.features * plane
	for f := 0; f < b.features; f++ {
		invStd := 1 / float32(math.Sqrt(float64(b.runningVar[f])+float64(b.eps)))
		mean := b.runningMean[f]
		for s := 0; s < batch; s++ {
			base := s*stride + f*plane
			for i := 0; i < plane; i++ {
				od[base+i] = g[f]*(xd[base+i]-mean)*invStd + be[f]
			}
		}
	}
	return out
}

// Backward computes the full batch-norm gradient:
//
//	dx̂ = dy·γ
//	dx = (1/σ)·(dx̂ − mean(dx̂) − x̂·mean(dx̂·x̂))
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		failf("nn: BatchNorm %q Backward before training Forward", b.name)
	}
	batch, plane := b.geometry(grad)
	stride := b.features * plane
	dx := tensor.New(b.lastShape...)
	gd, xh, dd := grad.Data(), b.lastXHat.Data(), dx.Data()
	g := b.gamma.Value.Data()
	gg, bgr := b.gamma.Grad.Data(), b.beta.Grad.Data()
	invN := 1 / float32(b.lastN)

	for f := 0; f < b.features; f++ {
		var sumDy, sumDyXh float32
		for s := 0; s < batch; s++ {
			base := s*stride + f*plane
			for i := 0; i < plane; i++ {
				dy := gd[base+i]
				sumDy += dy
				sumDyXh += dy * xh[base+i]
			}
		}
		gg[f] += sumDyXh
		bgr[f] += sumDy
		invStd := g[f] / b.lastStd[f]
		meanDy := sumDy * invN
		meanDyXh := sumDyXh * invN
		for s := 0; s < batch; s++ {
			base := s*stride + f*plane
			for i := 0; i < plane; i++ {
				dd[base+i] = invStd * (gd[base+i] - meanDy - xh[base+i]*meanDyXh)
			}
		}
	}
	return dx
}

// Params returns the affine scale and shift.
func (b *BatchNorm) Params() []*Param { return []*Param{b.gamma, b.beta} }

// RunningStats returns copies of the running mean and variance, primarily
// for tests and diagnostics.
func (b *BatchNorm) RunningStats() (mean, variance []float32) {
	return append([]float32(nil), b.runningMean...), append([]float32(nil), b.runningVar...)
}

// SetRunningStats overwrites the running statistics; model deserialization
// uses it.
func (b *BatchNorm) SetRunningStats(mean, variance []float32) {
	if len(mean) != b.features || len(variance) != b.features {
		failf("nn: BatchNorm %q SetRunningStats with %d/%d values, want %d", b.name, len(mean), len(variance), b.features)
	}
	copy(b.runningMean, mean)
	copy(b.runningVar, variance)
}
