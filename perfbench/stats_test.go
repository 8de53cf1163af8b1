package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The p99 is reported only where ten samples lie beyond it; smaller
// samples report the highest percentile that has them.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n        int
		p        float64
		want     float64
		wantUsed float64
		ok       bool
	}{
		{n: 1000, p: 99, want: 990, wantUsed: 99, ok: true},     // exactly 10 beyond
		{n: 2000, p: 99, want: 1980, wantUsed: 99, ok: true},    // 20 beyond
		{n: 500, p: 99, want: 490, wantUsed: 98, ok: true},      // capped: rank 490 has 10 beyond
		{n: 100, p: 50, want: 50, wantUsed: 50, ok: true},       // median is unaffected
		{n: 11, p: 99, want: 1, wantUsed: 100.0 / 11, ok: true}, // only the minimum qualifies
		{n: 10, p: 50, ok: false},                               // nothing has 10 beyond
	}
	for _, c := range cases {
		v, used, ok := percentile(seq(c.n), c.p)
		if ok != c.ok {
			t.Fatalf("n=%d p=%v: ok=%v, want %v", c.n, c.p, ok, c.ok)
		}
		if !ok {
			continue
		}
		if v != c.want || math.Abs(used-c.wantUsed) > 1e-9 {
			t.Errorf("n=%d p=%v: got %v at p%.3f, want %v at p%.3f", c.n, c.p, v, used, c.want, c.wantUsed)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d p=%v: %d samples beyond the reported value", c.n, c.p, beyond)
		}
	}
}

// Lost operations rank above every measured sample, so enough of them
// push the p99 off the finite samples and the summary is not usable.
func TestRecorderLostFramesMissEveryLimit(t *testing.T) {
	r := newRecorder()
	for i := 1; i <= 1000; i++ {
		r.add(time.Duration(i) * time.Microsecond)
	}
	s := r.summarize()
	if !s.ok || s.P99 != 990 || s.P50 != 500 {
		t.Fatalf("no losses: %+v", s)
	}
	for i := 0; i < 20; i++ {
		r.addLost()
	}
	s = r.summarize()
	if s.ok || s.P99 != -1 {
		t.Fatalf("20 lost of 1020: p99 should land on a lost frame, got %+v", s)
	}
	if s.P50 != 510 {
		t.Fatalf("median with 20 lost frames ranked last: got %v, want 510", s.P50)
	}
}

// Past its capacity the recorder keeps a uniform sample: the median of a
// long uniform stream stays near the stream's median.
func TestRecorderReservoir(t *testing.T) {
	r := newRecorder()
	n := 4 * reservoirCap
	for i := 0; i < n; i++ {
		r.add(time.Duration(i%1000) * time.Microsecond)
	}
	s := r.summarize()
	if s.N != int64(n) || len(r.buf) != reservoirCap {
		t.Fatalf("seen %d kept %d", s.N, len(r.buf))
	}
	if math.Abs(s.P50-500) > 15 {
		t.Fatalf("reservoir median %v, want about 500", s.P50)
	}
}

// A windowed latency is the 2nd percentile over the windows' figures: a
// run whose windows are mostly slow still reads the fast state while a
// few of its windows are fast. A window too sparse for its percentile is
// left out, and a run where most windows are is refused.
func TestWindowedLowQuantile(t *testing.T) {
	w := newWindowed(time.Second)
	for k := 0; k < 20; k++ {
		base := 55 // the slow state
		if k%5 == 0 {
			base = 30 // the fast state, in 4 windows of 20
		}
		n := 100
		if k == 7 {
			n = 5 // a window the host stalled through
		}
		for i := 0; i < n; i++ {
			w.add(time.Duration(k)*time.Second, time.Duration(base)*time.Microsecond)
		}
	}
	q, ok, ps := w.latency(20, false)
	if !ok || len(ps) != 19 || q != 30 {
		t.Fatalf("q %v ok %v over %d windows", q, ok, len(ps))
	}
	sparse := newWindowed(time.Second)
	for k := 0; k < 4; k++ {
		n := 5
		if k == 3 {
			n = 100 // the only window with a figure
		}
		for i := 0; i < n; i++ {
			sparse.add(time.Duration(k)*time.Second, time.Microsecond)
		}
	}
	if _, ok, ps := sparse.latency(4, false); ok {
		t.Fatalf("a figure from %d of 4 windows", len(ps))
	}
}
