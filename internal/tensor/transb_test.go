package tensor

import (
	"math"
	"testing"
)

// matMulTransBSerial is the one-output-at-a-time a·bᵀ loop the interleaved
// kernel replaced, kept as the reference it must match bit for bit.
func matMulTransBSerial(out, a, b *Tensor) {
	k, n := a.shape[1], out.shape[1]
	ad, bd, od := a.data, b.data, out.data
	for i := 0; i < a.shape[0]; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}

// checkTransBBits runs MatMulTransB, MatMulTransBInto (into a buffer
// pre-filled with garbage) and the serial reference, and fails on any bit
// difference. A NaN must be NaN on both sides but may carry a different
// payload: when both operands of an x86 add or multiply are NaN the result
// is the first one's, and which operand comes first is the compiler's
// register choice, which no Go loop fixes.
func checkTransBBits(t *testing.T, a, b *Tensor) {
	t.Helper()
	m, n := a.Dim(0), b.Dim(0)
	want := New(m, n)
	matMulTransBSerial(want, a, b)
	into := Full(float32(math.NaN()), m, n)
	MatMulTransBInto(into, a, b)
	for name, got := range map[string]*Tensor{"MatMulTransB": MatMulTransB(a, b), "MatMulTransBInto": into} {
		for i, w := range want.data {
			g := got.data[i]
			if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
				t.Fatalf("%s m=%d k=%d n=%d: element %d = %x, serial reference %x",
					name, m, a.Dim(1), n, i, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
}

func TestMatMulTransBMatchesSerialBits(t *testing.T) {
	setWorkers(t, 1)
	r := NewRNG(41)
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), 1e-45, -3.4e38}
	for _, dims := range [][3]int{
		{1, 512, 24}, {1, 24, 2}, {1, 7, 1}, {1, 5, 3}, {3, 9, 5}, {2, 16, 6}, {4, 1, 7}, {1, 0, 4},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a := RandNormal(r, 0, 1, m, k)
		b := RandNormal(r, 0, 1, n, k)
		checkTransBBits(t, a, b)
		if k == 0 {
			continue
		}
		// Pruned weights are exact zeros: whole rows and scattered entries.
		for p := 0; p < k; p++ {
			b.data[p] = 0
		}
		for i := range b.data {
			if i%3 == 0 {
				b.data[i] = 0
			}
		}
		checkTransBBits(t, a, b)
		// ±0, NaN and ±Inf in both operands.
		for i := range a.data {
			if i%4 == 1 {
				a.data[i] = special[i%len(special)]
			}
		}
		for i := range b.data {
			if i%5 == 2 {
				b.data[i] = special[(i/5)%len(special)]
			}
		}
		checkTransBBits(t, a, b)
	}
}

// FuzzMatMulTransB is the differential check as a fuzz target: arbitrary
// shapes and raw float32 bit patterns (NaN payloads, ±0, ±Inf, subnormals)
// must give the same bits from the interleaved kernel as from the serial
// reference.
func FuzzMatMulTransB(f *testing.F) {
	f.Add(uint8(1), uint8(9), uint8(5), []byte{0, 0, 0x80, 0x3f, 0, 0, 0xc0, 0x7f})
	f.Add(uint8(3), uint8(4), uint8(7), []byte{0, 0, 0, 0x80, 0, 0, 0x80, 0x7f, 1})
	f.Add(uint8(2), uint8(16), uint8(8), make([]byte, 64))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, payload []byte) {
		m := int(mRaw)%4 + 1
		k := int(kRaw) % 33
		n := int(nRaw)%13 + 1
		word := 0
		fill := func(x *Tensor) {
			for i := range x.data {
				var bits uint32
				for byteIdx := 0; byteIdx < 4; byteIdx++ {
					bits <<= 8
					if len(payload) > 0 {
						bits |= uint32(payload[(word*4+byteIdx)%len(payload)])
					}
				}
				x.data[i] = math.Float32frombits(bits ^ uint32(word)*0x9e3779b9)
				word++
			}
		}
		a, b := New(m, k), New(n, k)
		fill(a)
		fill(b)
		checkTransBBits(t, a, b)
	})
}

// setWorkers pins the matmul worker budget for a test and restores the
// default on cleanup, so parallel-path tests cannot leak configuration
// into the rest of the package run.
func setWorkers(t *testing.T, n int) {
	t.Helper()
	SetMatMulWorkers(n)
	t.Cleanup(func() { SetMatMulWorkers(0) })
}

// TestMatMulTransParityParallel covers the transpose-variant kernels under
// a multi-worker budget: each must be bit-identical to its own serial run,
// and agree with plain MatMul through an explicit transpose. Shapes exceed
// parallelThreshold so MatMulTransB actually takes its row fan-out path.
func TestMatMulTransParityParallel(t *testing.T) {
	m, k, n := 96, 160, 144 // 96·160·144 ≈ 2.2M FLOP > 1<<21
	r := NewRNG(31)
	a := RandNormal(r, 0, 1, m, k)
	bT := RandNormal(r, 0, 1, n, k) // b stored transposed, as dense layers do
	aT := Transpose2D(a)
	b := Transpose2D(bT)

	setWorkers(t, 1)
	wantTB := MatMulTransB(a, bT)
	wantTA := MatMulTransA(aT, b)
	ref := MatMul(a, b)

	SetMatMulWorkers(4)
	gotTB := MatMulTransB(a, bT)
	if !Equal(wantTB, gotTB) {
		t.Error("MatMulTransB parallel differs from serial")
	}
	gotTA := MatMulTransA(aT, b)
	if !Equal(wantTA, gotTA) {
		t.Error("MatMulTransA under workers=4 differs from workers=1")
	}
	if !AllClose(ref, gotTB, 1e-4) {
		t.Error("MatMulTransB disagrees with MatMul beyond tolerance")
	}
	if !AllClose(ref, gotTA, 1e-4) {
		t.Error("MatMulTransA disagrees with MatMul beyond tolerance")
	}
}

// TestMatMulTransBSkipsZeros pins the transpose-B kernel's sparse behavior
// under both worker budgets: zeroed a-rows yield exactly zero output rows.
func TestMatMulTransBSkipsZeros(t *testing.T) {
	r := NewRNG(37)
	a := RandNormal(r, 0, 1, 4, 8)
	bT := RandNormal(r, 0, 1, 6, 8)
	for j := 0; j < 8; j++ {
		a.Data()[2*8+j] = 0
	}
	for _, workers := range []int{1, 4} {
		setWorkers(t, workers)
		got := MatMulTransB(a, bT)
		for j := 0; j < 6; j++ {
			if got.At2(2, j) != 0 {
				t.Fatalf("workers=%d: zero row leaked %v at col %d", workers, got.At2(2, j), j)
			}
		}
	}
}
