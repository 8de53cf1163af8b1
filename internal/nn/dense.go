package nn

import (
	"repro/internal/tensor"
)

// Dense is a fully connected layer computing y = x·Wᵀ + b for x of shape
// [B, in]. The weight is stored (out × in), so pruning an output neuron
// zeros a weight row and pruning an input feature zeros a column.
type Dense struct {
	name    string
	in, out int
	weight  *Param
	bias    *Param

	lastInput *tensor.Tensor // cached for Backward
}

// NewDense constructs a dense layer with He-normal initialized weights and
// zero biases.
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	if in <= 0 || out <= 0 {
		failf("nn: Dense %q with non-positive dims in=%d out=%d", name, in, out)
	}
	return &Dense{
		name:   name,
		in:     in,
		out:    out,
		weight: newParam(name+"/weight", tensor.HeNormal(rng, in, out, in), true),
		bias:   newParam(name+"/bias", tensor.New(out), false),
	}
}

// Name returns the layer name.
func (d *Dense) Name() string { return d.name }

// InFeatures returns the input width.
func (d *Dense) InFeatures() int { return d.in }

// OutFeatures returns the output width.
func (d *Dense) OutFeatures() int { return d.out }

// Weight returns the (out × in) weight parameter.
func (d *Dense) Weight() *Param { return d.weight }

// Bias returns the bias parameter.
func (d *Dense) Bias() *Param { return d.bias }

// Forward computes x·Wᵀ + b.
func (d *Dense) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := d.infer(x, nil)
	if training {
		d.lastInput = x
	}
	return out
}

func (d *Dense) infer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != d.in {
		failf("nn: Dense %q input shape %v, want [B %d]", d.name, x.Shape(), d.in)
	}
	out := ws.take(x.Dim(0), d.out)
	tensor.MatMulTransBInto(out, x, d.weight.Value)
	b := d.bias.Value.Data()
	od := out.Data()
	cols := d.out
	for i := 0; i < x.Dim(0); i++ {
		row := od[i*cols : (i+1)*cols]
		for j := range row {
			row[j] += b[j]
		}
	}
	return out
}

// Backward accumulates dW = gradᵀ·x and db = Σ grad rows, and returns
// dx = grad·W.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastInput == nil {
		failf("nn: Dense %q Backward before training Forward", d.name)
	}
	// dW (out×in) += gradᵀ (out×B) · x (B×in)
	dW := tensor.MatMulTransA(grad, d.lastInput)
	tensor.AddInPlace(d.weight.Grad, dW)
	// db += column sums of grad.
	tensor.AddInPlace(d.bias.Grad, tensor.SumRows(grad))
	// dx (B×in) = grad (B×out) · W (out×in)
	return tensor.MatMul(grad, d.weight.Value)
}

// Params returns the weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// Describe reports the dense layer's cost profile.
func (d *Dense) Describe() Info {
	return Info{
		Name:                 d.name,
		Type:                 "dense",
		ParamCount:           int64(d.in)*int64(d.out) + int64(d.out),
		MACsPerSample:        int64(d.in) * int64(d.out),
		ActivationsPerSample: int64(d.out),
	}
}
