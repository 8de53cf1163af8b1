// Package nn implements the neural-network substrate: layers with forward
// and backward passes, parameter handling, sequential models, and model
// serialization. It is the stack the pruning and reversible-runtime layers
// operate on.
//
// Conventions:
//   - Activations flow as batch-major tensors: 2-D [B, F] for dense paths
//     and 4-D [B, C, H, W] for convolutional paths.
//   - Layers are stateful: Forward caches whatever Backward needs, so a
//     model instance must not be shared between concurrent goroutines.
//   - Weights are float32 and exposed via named Params so the pruning layer
//     can edit them in place.
//   - Forward returns freshly allocated outputs the caller owns.
//     Sequential.Infer runs the same inference kernels into buffers owned
//     by a Workspace: a tensor it returns is valid only until the next
//     Infer on the same workspace. Layers keep no output buffers of their
//     own, so a model evaluated at a large batch holds no batch-sized
//     memory afterwards (Conv2D's cached patch matrix is the one scratch
//     buffer a layer keeps).
package nn

import "repro/internal/tensor"

// Param is a single trainable parameter tensor with its gradient
// accumulator.
type Param struct {
	// Name identifies the parameter within its model, e.g. "conv1/weight".
	Name string
	// Value is the live parameter tensor. Pruning edits it in place.
	Value *tensor.Tensor
	// Grad accumulates the gradient of the loss w.r.t. Value. It has the
	// same shape as Value and is managed by the optimizer.
	Grad *tensor.Tensor
	// Prunable marks parameters that pruning strategies may act on. Weights
	// are prunable; biases and normalization affine terms are not.
	Prunable bool
}

// newParam allocates a parameter with a zeroed gradient of matching shape.
func newParam(name string, value *tensor.Tensor, prunable bool) *Param {
	return &Param{
		Name:     name,
		Value:    value,
		Grad:     tensor.New(value.Shape()...),
		Prunable: prunable,
	}
}

// Layer is one differentiable stage of a network.
type Layer interface {
	// Name returns the layer's unique name within its model.
	Name() string
	// Forward computes the layer output for input x. When training is true
	// the layer caches intermediates for Backward and applies train-time
	// behaviour (e.g. dropout).
	Forward(x *tensor.Tensor, training bool) *tensor.Tensor
	// Backward consumes the gradient of the loss w.r.t. this layer's output
	// and returns the gradient w.r.t. its input, accumulating parameter
	// gradients along the way. It must be called after a training-mode
	// Forward.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Info summarizes a layer's static cost profile; the platform model uses it
// to estimate latency and energy per inference.
type Info struct {
	Name string
	Type string
	// ParamCount is the number of trainable scalars.
	ParamCount int64
	// MACsPerSample is the number of multiply-accumulate operations one
	// forward pass performs for a single sample, assuming dense execution.
	MACsPerSample int64
	// ActivationsPerSample is the number of output scalars produced for a
	// single sample (a proxy for memory traffic).
	ActivationsPerSample int64
}

// Described is implemented by layers that can report a static cost profile.
// All compute-bearing layers in this package implement it.
type Described interface {
	Describe() Info
}
