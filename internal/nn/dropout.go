package nn

import (
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Dropout randomly zeroes activations during training with probability p,
// scaling survivors by 1/(1-p) (inverted dropout), and is the identity at
// inference time.
type Dropout struct {
	name     string
	p        float32
	rng      *tensor.RNG
	lastKeep []float32
}

// NewDropout constructs a dropout layer with drop probability p in [0, 1).
func NewDropout(name string, p float32, rng *tensor.RNG) *Dropout {
	if p < 0 || p >= 1 {
		failf("nn: Dropout %q p=%v out of [0,1)", name, p)
	}
	return &Dropout{name: name, p: p, rng: rng}
}

// Name returns the layer name.
func (d *Dropout) Name() string { return d.name }

// P returns the drop probability.
func (d *Dropout) P() float32 { return d.p }

// Forward drops activations in training mode and passes through otherwise.
func (d *Dropout) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if !training || metrics.ApproxEqual(d.p, 0, 1e-9) {
		return x
	}
	out := tensor.New(x.Shape()...)
	if len(d.lastKeep) != x.Len() {
		d.lastKeep = make([]float32, x.Len())
	}
	scale := 1 / (1 - d.p)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if d.rng.Float32() < d.p {
			d.lastKeep[i] = 0
		} else {
			d.lastKeep[i] = scale
			od[i] = v * scale
		}
	}
	return out
}

// infer is the identity: dropout is inert at inference.
func (d *Dropout) infer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor { return x }

// Backward applies the same keep mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if metrics.ApproxEqual(d.p, 0, 1e-9) {
		return grad
	}
	if d.lastKeep == nil || len(d.lastKeep) != grad.Len() {
		failf("nn: Dropout %q Backward before training Forward", d.name)
	}
	out := tensor.New(grad.Shape()...)
	gd, od := grad.Data(), out.Data()
	for i, k := range d.lastKeep {
		od[i] = gd[i] * k
	}
	return out
}

// Params returns nil: dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
