package tensor

import "math"

// binaryCheck panics unless a and b share a shape.
func binaryCheck(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		failf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape)
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	binaryCheck("Add", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	binaryCheck("Sub", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns the elementwise (Hadamard) product a * b.
func Mul(a, b *Tensor) *Tensor {
	binaryCheck("Mul", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	binaryCheck("Div", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] / b.data[i]
	}
	return out
}

// AddInPlace accumulates b into a and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	binaryCheck("AddInPlace", a, b)
	for i := range a.data {
		a.data[i] += b.data[i]
	}
	return a
}

// SubInPlace subtracts b from a in place and returns a.
func SubInPlace(a, b *Tensor) *Tensor {
	binaryCheck("SubInPlace", a, b)
	for i := range a.data {
		a.data[i] -= b.data[i]
	}
	return a
}

// MulInPlace multiplies a by b elementwise in place and returns a.
func MulInPlace(a, b *Tensor) *Tensor {
	binaryCheck("MulInPlace", a, b)
	for i := range a.data {
		a.data[i] *= b.data[i]
	}
	return a
}

// AXPY computes a += alpha*b in place, the classic saxpy kernel.
func AXPY(alpha float32, b, a *Tensor) *Tensor {
	binaryCheck("AXPY", a, b)
	for i := range a.data {
		a.data[i] += alpha * b.data[i]
	}
	return a
}

// Scale multiplies every element of t by s in place and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScalar adds s to every element of t in place and returns t.
func (t *Tensor) AddScalar(s float32) *Tensor {
	for i := range t.data {
		t.data[i] += s
	}
	return t
}

// Apply replaces each element x of t with f(x) in place and returns t.
func (t *Tensor) Apply(f func(float32) float32) *Tensor {
	for i := range t.data {
		t.data[i] = f(t.data[i])
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float32 {
	var s float32
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float32 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float32(len(t.data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.data) == 0 {
		failf("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float32 {
	if len(t.data) == 0 {
		failf("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the first maximum element.
func (t *Tensor) Argmax() int {
	if len(t.data) == 0 {
		failf("tensor: Argmax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// L1Norm returns the sum of absolute values of the elements.
func (t *Tensor) L1Norm() float32 {
	var s float32
	for _, v := range t.data {
		if v < 0 {
			s -= v
		} else {
			s += v
		}
	}
	return s
}

// L2Norm returns the Euclidean norm of the elements.
func (t *Tensor) L2Norm() float32 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// CountNonZero returns the number of elements that are exactly nonzero.
func (t *Tensor) CountNonZero() int {
	n := 0
	for _, v := range t.data {
		if v != 0 { //lint:allow(floateq) CountNonZero is defined over bit-exact zeros
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of elements that are exactly zero, in [0,1].
func (t *Tensor) Sparsity() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return 1 - float64(t.CountNonZero())/float64(len(t.data))
}

// Clamp limits every element of t to [lo, hi] in place and returns t.
func (t *Tensor) Clamp(lo, hi float32) *Tensor {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
	return t
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		failf("tensor: Transpose2D on %d-D tensor", len(a.shape))
	}
	r, c := a.shape[0], a.shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		row := a.data[i*c : (i+1)*c]
		for j, v := range row {
			out.data[j*r+i] = v
		}
	}
	return out
}

// Row returns a view (shared storage) of row i of a 2-D tensor as a 1-D
// tensor of length cols.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		failf("tensor: Row on %d-D tensor", len(t.shape))
	}
	c := t.shape[1]
	return &Tensor{shape: []int{c}, data: t.data[i*c : (i+1)*c]}
}

// SumRows returns a 1-D tensor of length cols holding the column sums of a
// 2-D tensor (i.e. the reduction over rows).
func SumRows(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		failf("tensor: SumRows on %d-D tensor", len(a.shape))
	}
	r, c := a.shape[0], a.shape[1]
	out := New(c)
	for i := 0; i < r; i++ {
		row := a.data[i*c : (i+1)*c]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// ArgmaxRows returns, for each row of a 2-D tensor, the column index of its
// maximum element.
func ArgmaxRows(a *Tensor) []int {
	if len(a.shape) != 2 {
		failf("tensor: ArgmaxRows on %d-D tensor", len(a.shape))
	}
	r, c := a.shape[0], a.shape[1]
	out := make([]int, r)
	for i := 0; i < r; i++ {
		row := a.data[i*c : (i+1)*c]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[i] = bi
	}
	return out
}

// SoftmaxRows returns a new 2-D tensor whose rows are the softmax of a's
// rows, computed with the max-subtraction trick for numerical stability.
func SoftmaxRows(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		failf("tensor: SoftmaxRows on %d-D tensor", len(a.shape))
	}
	out := New(a.shape[0], a.shape[1])
	SoftmaxRowsInto(out, a)
	return out
}

// SoftmaxRowsInto writes the row-wise softmax of the 2-D tensor a into out,
// which must have a's shape; every element of out is overwritten.
func SoftmaxRowsInto(out, a *Tensor) {
	if len(a.shape) != 2 || !SameShape(out, a) {
		failf("tensor: SoftmaxRowsInto shapes %v into %v, want equal 2-D", a.shape, out.shape)
	}
	r, c := a.shape[0], a.shape[1]
	for i := 0; i < r; i++ {
		row := a.data[i*c : (i+1)*c]
		orow := out.data[i*c : (i+1)*c]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float32
		for j, v := range row {
			e := float32(math.Exp(float64(v - m)))
			orow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
}
