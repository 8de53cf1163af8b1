package tensor

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{nil, 1},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4}, 24},
		{[]int{0, 5}, 0},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Len() != c.want {
			t.Errorf("New(%v).Len() = %d, want %d", c.shape, tt.Len(), c.want)
		}
		if tt.Dims() != len(c.shape) {
			t.Errorf("New(%v).Dims() = %d, want %d", c.shape, tt.Dims(), len(c.shape))
		}
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3, 4)
	v := float32(0)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				tt.Set(v, i, j, k)
				v++
			}
		}
	}
	// Row-major: last index varies fastest.
	for i, want := range tt.Data() {
		if tt.Data()[i] != want {
			t.Fatalf("data[%d] = %v, want %v", i, tt.Data()[i], want)
		}
	}
	if got := tt.At(1, 2, 3); got != 23 {
		t.Errorf("At(1,2,3) = %v, want 23", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	tt.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set2(99, 0, 0)
	if a.At2(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
	if !SameShape(a, b) {
		t.Error("Clone changed shape")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set2(42, 0, 1)
	if a.At2(0, 1) != 42 {
		t.Error("Reshape should share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	a.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	if got := Add(a, b).Data(); got[0] != 6 || got[3] != 12 {
		t.Errorf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 4 || got[3] != 4 {
		t.Errorf("Sub wrong: %v", got)
	}
	if got := Mul(a, b).Data(); got[0] != 5 || got[3] != 32 {
		t.Errorf("Mul wrong: %v", got)
	}
	if got := Div(b, a).Data(); got[0] != 5 || got[3] != 2 {
		t.Errorf("Div wrong: %v", got)
	}
}

func TestInPlaceOpsReturnReceiver(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	if got := AddInPlace(a, b); got != a {
		t.Error("AddInPlace did not return receiver")
	}
	if a.Data()[1] != 22 {
		t.Errorf("AddInPlace wrong: %v", a.Data())
	}
	SubInPlace(a, b)
	if a.Data()[1] != 2 {
		t.Errorf("SubInPlace wrong: %v", a.Data())
	}
	MulInPlace(a, b)
	if a.Data()[1] != 40 {
		t.Errorf("MulInPlace wrong: %v", a.Data())
	}
}

func TestAXPY(t *testing.T) {
	a := FromSlice([]float32{1, 1}, 2)
	b := FromSlice([]float32{2, 3}, 2)
	AXPY(0.5, b, a)
	if a.Data()[0] != 2 || a.Data()[1] != 2.5 {
		t.Errorf("AXPY wrong: %v", a.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Add(a, b)
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{-1, 2, -3, 4}, 4)
	if a.Sum() != 2 {
		t.Errorf("Sum = %v", a.Sum())
	}
	if a.Mean() != 0.5 {
		t.Errorf("Mean = %v", a.Mean())
	}
	if a.Max() != 4 || a.Min() != -3 {
		t.Errorf("Max/Min = %v/%v", a.Max(), a.Min())
	}
	if a.Argmax() != 3 {
		t.Errorf("Argmax = %d", a.Argmax())
	}
	if a.L1Norm() != 10 {
		t.Errorf("L1Norm = %v", a.L1Norm())
	}
	want := float32(math.Sqrt(1 + 4 + 9 + 16))
	if d := a.L2Norm() - want; d > 1e-6 || d < -1e-6 {
		t.Errorf("L2Norm = %v, want %v", a.L2Norm(), want)
	}
}

func TestSparsityAccounting(t *testing.T) {
	a := FromSlice([]float32{0, 1, 0, 2, 0, 0}, 6)
	if a.CountNonZero() != 2 {
		t.Errorf("CountNonZero = %d", a.CountNonZero())
	}
	if got := a.Sparsity(); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("Sparsity = %v", got)
	}
}

func TestClamp(t *testing.T) {
	a := FromSlice([]float32{-5, 0, 5}, 3)
	a.Clamp(-1, 1)
	if a.Data()[0] != -1 || a.Data()[1] != 0 || a.Data()[2] != 1 {
		t.Errorf("Clamp wrong: %v", a.Data())
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := Transpose2D(a)
	if b.Dim(0) != 3 || b.Dim(1) != 2 {
		t.Fatalf("transpose shape %v", b.Shape())
	}
	if b.At2(0, 1) != 4 || b.At2(2, 0) != 3 {
		t.Errorf("transpose values wrong: %v", b.Data())
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	r := NewRNG(7)
	a := RandNormal(r, 0, 1, 5, 4)
	b := RandNormal(r, 0, 1, 4, 6)
	want := MatMul(a, b)

	gotTB := MatMulTransB(a, Transpose2D(b))
	if !AllClose(want, gotTB, 1e-4) {
		t.Error("MatMulTransB disagrees with MatMul")
	}
	gotTA := MatMulTransA(Transpose2D(a), b)
	if !AllClose(want, gotTA, 1e-4) {
		t.Error("MatMulTransA disagrees with MatMul")
	}
	out := New(5, 6)
	MatMulInto(out, a, b)
	if !Equal(want, out) {
		t.Error("MatMulInto disagrees with MatMul")
	}
	MatMulAccumulate(out, a, b)
	doubled := want.Clone().Scale(2)
	if !AllClose(doubled, out, 1e-4) {
		t.Error("MatMulAccumulate did not accumulate")
	}
}

func TestMatMulSkipsZeros(t *testing.T) {
	// A row of zeros in a must produce a row of zeros, exercising the
	// sparse skip path.
	a := FromSlice([]float32{0, 0, 1, 2}, 2, 2)
	b := FromSlice([]float32{3, 4, 5, 6}, 2, 2)
	c := MatMul(a, b)
	if c.At2(0, 0) != 0 || c.At2(0, 1) != 0 {
		t.Errorf("zero row not preserved: %v", c.Data())
	}
	if c.At2(1, 0) != 13 || c.At2(1, 1) != 16 {
		t.Errorf("second row wrong: %v", c.Data())
	}
}

func TestMatVecAndOuterAndDot(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float32{1, -1}, 2)
	mv := MatVec(a, x)
	if mv.Data()[0] != -1 || mv.Data()[1] != -1 {
		t.Errorf("MatVec wrong: %v", mv.Data())
	}
	o := Outer(x, x)
	if o.At2(0, 1) != -1 || o.At2(1, 1) != 1 {
		t.Errorf("Outer wrong: %v", o.Data())
	}
	if Dot(x, x) != 2 {
		t.Errorf("Dot = %v", Dot(x, x))
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float32{0, 0, 1000, 1000}, 2, 2)
	s := SoftmaxRows(a)
	for i := 0; i < 2; i++ {
		sum := s.At2(i, 0) + s.At2(i, 1)
		if d := sum - 1; d > 1e-5 || d < -1e-5 {
			t.Errorf("row %d softmax sum = %v", i, sum)
		}
		if s.At2(i, 0) != s.At2(i, 1) {
			t.Errorf("row %d equal logits should give equal probs", i)
		}
	}
	if math.IsNaN(float64(s.At2(1, 0))) {
		t.Error("softmax overflowed on large logits")
	}
}

func TestArgmaxRowsAndSumRows(t *testing.T) {
	a := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	am := ArgmaxRows(a)
	if am[0] != 1 || am[1] != 0 {
		t.Errorf("ArgmaxRows = %v", am)
	}
	sr := SumRows(a)
	if sr.Data()[0] != 10 || sr.Data()[1] != 5 || sr.Data()[2] != 5 {
		t.Errorf("SumRows = %v", sr.Data())
	}
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	r := a.Row(1)
	r.Data()[0] = 77
	if a.At2(1, 0) != 77 {
		t.Error("Row should be a view")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := RandNormal(NewRNG(42), 0, 1, 10)
	b := RandNormal(NewRNG(42), 0, 1, 10)
	if !Equal(a, b) {
		t.Error("same seed should give identical tensors")
	}
	c := RandNormal(NewRNG(43), 0, 1, 10)
	if Equal(a, c) {
		t.Error("different seed gave identical tensors")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(1)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Float32() == f2.Float32() && f1.Float32() == f2.Float32() && f1.Float32() == f2.Float32() {
		t.Error("forked streams appear identical")
	}
}

func TestInitializerStatistics(t *testing.T) {
	r := NewRNG(3)
	h := HeNormal(r, 100, 100, 100)
	mean := h.Mean()
	if mean > 0.01 || mean < -0.01 {
		t.Errorf("HeNormal mean = %v, want ~0", mean)
	}
	x := XavierUniform(r, 50, 50, 1000)
	limit := float32(math.Sqrt(6.0 / 100.0))
	if x.Max() > limit || x.Min() < -limit {
		t.Errorf("XavierUniform out of bounds [%v, %v] vs limit %v", x.Min(), x.Max(), limit)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	r := NewRNG(11)
	orig := RandNormal(r, 0, 2, 3, 4, 5)
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if int(n) != orig.EncodedSize() {
		t.Errorf("wrote %d bytes, EncodedSize says %d", n, orig.EncodedSize())
	}
	got, err := ReadTensor(&buf)
	if err != nil {
		t.Fatalf("ReadTensor: %v", err)
	}
	if !Equal(orig, got) {
		t.Error("round trip not identical")
	}
}

func TestSerializationRejectsGarbage(t *testing.T) {
	if _, err := ReadTensor(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("expected error for truncated input")
	}
	bad := make([]byte, 16)
	if _, err := ReadTensor(bytes.NewReader(bad)); err == nil {
		t.Error("expected error for bad magic")
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	if good.OutH() != 8 || good.OutW() != 8 {
		t.Errorf("same-padding output = %dx%d, want 8x8", good.OutH(), good.OutW())
	}
	bad := good
	bad.StrideH = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero stride accepted")
	}
	bad = good
	bad.KH = 20
	if err := bad.Validate(); err == nil {
		t.Error("kernel larger than padded input accepted")
	}
	bad = ConvGeom{InC: 1, InH: 2, InW: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 1}
	if err := bad.Validate(); err == nil {
		t.Error("kernel larger than padded input accepted at stride 2")
	}
}

// TestIm2colMatchesDirectConv checks the im2col+matmul convolution against a
// direct quadruple-loop reference implementation.
func TestIm2colMatchesDirectConv(t *testing.T) {
	r := NewRNG(5)
	g := ConvGeom{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	outC := 3
	img := RandNormal(r, 0, 1, g.InC, g.InH, g.InW)
	w := RandNormal(r, 0, 1, outC, g.InC*g.KH*g.KW)

	cols := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	Im2col(img.Data(), g, cols)
	got := MatMul(w, cols) // (outC) x (oh*ow)

	// Direct reference.
	oh, ow := g.OutH(), g.OutW()
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for c := 0; c < g.InC; c++ {
					for kh := 0; kh < g.KH; kh++ {
						for kw := 0; kw < g.KW; kw++ {
							iy := oy*g.StrideH - g.PadH + kh
							ix := ox*g.StrideW - g.PadW + kw
							if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
								continue
							}
							s += img.At(c, iy, ix) * w.At2(oc, (c*g.KH+kh)*g.KW+kw)
						}
					}
				}
				if d := s - got.At2(oc, oy*ow+ox); d > 1e-4 || d < -1e-4 {
					t.Fatalf("conv mismatch at oc=%d oy=%d ox=%d: direct %v vs im2col %v", oc, oy, ox, s, got.At2(oc, oy*ow+ox))
				}
			}
		}
	}
}

// TestCol2imIsIm2colAdjoint verifies <Im2col(x), y> == <x, Col2im(y)> — the
// defining property of an adjoint pair, which is exactly what backprop
// through convolution requires.
func TestCol2imIsIm2colAdjoint(t *testing.T) {
	r := NewRNG(9)
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 2, PadH: 1, PadW: 0}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := RandNormal(r, 0, 1, g.InC*g.InH*g.InW)
	y := RandNormal(r, 0, 1, g.InC*g.KH*g.KW, g.OutH()*g.OutW())

	cols := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	Im2col(x.Data(), g, cols)
	lhs := Dot(cols, y)

	back := make([]float32, g.InC*g.InH*g.InW)
	Col2im(y, g, back)
	rhs := Dot(x, FromSlice(back, len(back)))

	if d := lhs - rhs; d > 1e-3 || d < -1e-3 {
		t.Errorf("adjoint property violated: %v vs %v", lhs, rhs)
	}
}

// Property: MatMul distributes over addition — A(B+C) = AB + AC.
func TestMatMulDistributesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := RandNormal(r, 0, 1, m, k)
		b := RandNormal(r, 0, 1, k, n)
		c := RandNormal(r, 0, 1, k, n)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		return AllClose(lhs, rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: serialization round-trips arbitrary shaped tensors.
func TestSerializationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		dims := make([]int, 1+r.Intn(4))
		for i := range dims {
			dims[i] = 1 + r.Intn(5)
		}
		orig := RandNormal(r, 0, 3, dims...)
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadTensor(&buf)
		if err != nil {
			return false
		}
		return Equal(orig, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		a := RandNormal(r, 0, 1, 1+r.Intn(8), 1+r.Intn(8))
		return Equal(a, Transpose2D(Transpose2D(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	r := NewRNG(31)
	// Big enough to cross the parallel threshold.
	a := RandNormal(r, 0, 1, 200, 200)
	b := RandNormal(r, 0, 1, 200, 200)
	SetMatMulWorkers(1)
	serial := MatMul(a, b)
	SetMatMulWorkers(4)
	parallel := MatMul(a, b)
	SetMatMulWorkers(0) // restore default
	if !Equal(serial, parallel) {
		t.Error("parallel matmul not bit-identical to serial")
	}
}

func TestMatMulParallelAccumulate(t *testing.T) {
	r := NewRNG(32)
	a := RandNormal(r, 0, 1, 150, 150)
	b := RandNormal(r, 0, 1, 150, 150)
	// Same operation sequence serial vs parallel, so float summation order
	// per output element is identical and results must be bit-equal.
	SetMatMulWorkers(1)
	want := New(150, 150)
	MatMulInto(want, a, b)
	MatMulAccumulate(want, a, b)
	SetMatMulWorkers(4)
	got := New(150, 150)
	MatMulInto(got, a, b)
	MatMulAccumulate(got, a, b)
	SetMatMulWorkers(0)
	if !Equal(want, got) {
		t.Error("parallel accumulate differs from serial")
	}
}

func TestSetMatMulWorkersNegativeRestoresDefault(t *testing.T) {
	SetMatMulWorkers(-5)
	r := NewRNG(33)
	a := RandNormal(r, 0, 1, 4, 4)
	b := RandNormal(r, 0, 1, 4, 4)
	if MatMul(a, b) == nil {
		t.Fatal("matmul failed after negative worker count")
	}
	SetMatMulWorkers(0)
}
