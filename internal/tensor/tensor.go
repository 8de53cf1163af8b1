// Package tensor implements the dense float32 tensor engine that underpins
// the neural-network, pruning, and runtime-adaptation layers of this
// repository. Tensors are contiguous, row-major, and deliberately simple:
// every operation either allocates a fresh result or writes into an
// explicitly provided destination, so callers can reason about aliasing.
//
// Shape errors are programming errors, not runtime conditions, so the
// package panics with a descriptive message rather than returning errors;
// this mirrors the convention of established numeric libraries.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
// The zero value is not usable; construct tensors with New, Zeros, etc.
type Tensor struct {
	shape []int
	data  []float32
}

// New constructs a tensor with the given shape backed by freshly allocated,
// zeroed storage. A zero-dimensional tensor (no shape arguments) holds a
// single scalar element.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice constructs a tensor with the given shape that takes ownership of
// data. The length of data must equal the product of the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		failf("tensor: FromSlice data length %d does not match shape %v (want %d)", len(data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Zeros returns a tensor of the given shape filled with zeros.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Ones returns a tensor of the given shape filled with ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float32) *Tensor {
	t := New()
	t.data[0] = v
	return t
}

// checkShape formats a copy of shape on failure so that shape itself does
// not escape: a caller's variadic shape slice then stays on its stack.
func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			failf("tensor: negative dimension in shape %v", append([]int(nil), shape...))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor; this is
// intentional and heavily used by the pruning layer, which edits weights in
// place.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !SameShape(t, src) {
		failf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape)
	}
	copy(t.data, src.data)
}

// Reshape returns a tensor sharing t's storage with a new shape. The element
// count must be preserved.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		failf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), append([]int(nil), shape...), n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// offset computes the flat offset of the multi-index idx.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		failf("tensor: index %v has wrong arity for shape %v", idx, t.shape)
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			failf("tensor: index %v out of range for shape %v", idx, t.shape)
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the multi-index idx.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set assigns v to the element at the multi-index idx.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

// At2 returns element (i,j) of a 2-D tensor without building an index slice.
func (t *Tensor) At2(i, j int) float32 {
	if len(t.shape) != 2 {
		failf("tensor: At2 on %d-D tensor", len(t.shape))
	}
	return t.data[i*t.shape[1]+j]
}

// Set2 assigns element (i,j) of a 2-D tensor.
func (t *Tensor) Set2(v float32, i, j int) {
	if len(t.shape) != 2 {
		failf("tensor: Set2 on %d-D tensor", len(t.shape))
	}
	t.data[i*t.shape[1]+j] = v
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element of t to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether a and b have the same shape and bit-identical
// elements (NaNs compare unequal, matching float semantics).
func Equal(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] { //lint:allow(floateq) Equal is documented bit-exact equality
			return false
		}
	}
	return true
}

// AllClose reports whether a and b have the same shape and every pair of
// elements differs by at most tol in absolute value.
func AllClose(a, b *Tensor, tol float32) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		d := a.data[i] - b.data[i]
		if d < 0 {
			d = -d
		}
		if d > tol || math.IsNaN(float64(a.data[i])) != math.IsNaN(float64(b.data[i])) {
			return false
		}
	}
	return true
}

// String renders a compact, shape-prefixed representation for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	limit := len(t.data)
	const maxShown = 16
	truncated := false
	if limit > maxShown {
		limit = maxShown
		truncated = true
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if truncated {
		fmt.Fprintf(&b, " … (%d elems)", len(t.data))
	}
	b.WriteString("]")
	return b.String()
}
