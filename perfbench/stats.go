package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is the reporting rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it. With fewer
// samples the highest percentile that has them is reported instead, and
// the percentile actually used is written next to the value.
const minBeyond = 10

// percentile returns the nearest-rank value at percentile p of the sorted
// samples, capped at the highest rank that still has minBeyond samples
// after it, together with the percentile actually reported. ok is false
// when the sample is too small to report any such percentile.
func percentile(sorted []float64, p float64) (v, used float64, ok bool) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0, false
	}
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if max := n - 1 - minBeyond; k > max {
		k = max
	}
	return sorted[k], 100 * float64(k+1) / float64(n), true
}

// reservoirCap bounds the samples one recorder keeps, so the benchmark's
// own memory does not grow with the length or speed of a run (live_heap_mb
// measures the program, and a faster program completes more frames).
const reservoirCap = 1 << 16

// recorder collects durations. It keeps every sample up to reservoirCap
// and a uniform random subset of the stream beyond that (reservoir
// sampling with a fixed seed). Lost operations — shed, rejected or failed
// frames — are counted apart and rank above every measured sample, since
// they miss every latency limit. Safe for concurrent use.
type recorder struct {
	mu     sync.Mutex
	buf    []float64 // microseconds
	seen   int64
	lost   int64
	rng    *rand.Rand // made when the reservoir first overflows
	frozen *summary
}

func newRecorder() *recorder {
	return &recorder{}
}

// add records one duration.
func (r *recorder) add(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	r.mu.Lock()
	r.seen++
	if len(r.buf) < reservoirCap {
		r.buf = append(r.buf, us)
	} else {
		if r.rng == nil {
			r.rng = rand.New(rand.NewSource(1))
		}
		if j := r.rng.Int63n(r.seen); j < reservoirCap {
			r.buf[j] = us
		}
	}
	r.mu.Unlock()
}

// addLost records one operation that produced no timely answer.
func (r *recorder) addLost() {
	r.mu.Lock()
	r.lost++
	r.mu.Unlock()
}

// summary is a recorder's percentiles in microseconds.
type summary struct {
	N       int64   `json:"n"`
	Lost    int64   `json:"lost"`
	P50     float64 `json:"p50_us"`
	P99     float64 `json:"p99_us"`
	P99Used float64 `json:"p99_percentile"`
	Mean    float64 `json:"mean_us"`
	// ok: both percentiles are supported and finite; p50ok: the median
	// is; lostTail: the p99 fell on a lost operation.
	ok, p50ok, lostTail bool
}

// summarize computes the median and the p99 (by the minBeyond rule) over
// the kept samples, with lost operations ranked last at +Inf. The lost
// share is preserved when the reservoir holds only part of the stream.
func (r *recorder) summarize() summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen != nil {
		return *r.frozen
	}
	s := summary{N: r.seen, Lost: r.lost}
	kept := append([]float64(nil), r.buf...)
	var sum float64
	for _, v := range kept {
		sum += v
	}
	if len(kept) > 0 {
		s.Mean = sum / float64(len(kept))
	}
	lostKept := r.lost
	if r.seen > int64(len(kept)) {
		lostKept = int64(math.Round(float64(r.lost) * float64(len(kept)) / float64(r.seen)))
	}
	for i := int64(0); i < lostKept; i++ {
		kept = append(kept, math.Inf(1))
	}
	sort.Float64s(kept)
	var ok1, ok2 bool
	s.P50, _, ok1 = percentile(kept, 50)
	s.P99, s.P99Used, ok2 = percentile(kept, 99)
	s.lostTail = ok2 && math.IsInf(s.P99, 1)
	s.p50ok = ok1 && !math.IsInf(s.P50, 1)
	s.ok = s.p50ok && ok2 && !s.lostTail
	// A percentile that lands on a lost operation has no finite value;
	// it reads -1 in the details and fails the run if it is a metric.
	if math.IsInf(s.P50, 1) {
		s.P50 = -1
	}
	if math.IsInf(s.P99, 1) {
		s.P99 = -1
	}
	return s
}

// window is the width of the windows the windowed metrics are taken over:
// short enough to catch the moments the host runs at full speed (see
// lowQ), long enough that every window holds a few hundred frames.
const window = 100 * time.Millisecond

// windowsIn is how many whole windows of about w fit in d (at least one).
func windowsIn(d, w time.Duration) int { return max(1, int(d/w)) }

// The windowed metrics report a latency as the 2nd percentile over
// windows of each window's percentile (lowQ), and a rate as the 98th
// percentile over windows (1-lowQ): about the second best of a run's
// windows, the figure of the host at its least disturbed. Each vCPU of
// the 2-vCPU reference host changes speed every quarter second to few
// seconds, independently of the other and of what this process does, as
// other tenants come and go: on one pinned thread a restore takes from
// 30 µs to 55-60 µs, its checksum pass from 0.7 µs to 1.3 µs, and a sum
// over a 1 MB buffer from 100 µs to 160-190 µs, all three moving
// together. Runs spend anywhere from a third to nearly all of their time
// slowed, so a median over windows, or over the whole run, moves by up to
// half from run to run, and even the 10th percentile over 50 ms windows
// moved by a third. Nearly every run has a few windows at full speed, so
// the 2nd percentile holds. A change to the program moves every window,
// so it moves this figure as well.
const lowQ = 0.02

// windowed splits a stream of durations into fixed windows of a run (by
// when each operation was due or started) and reports a low quantile over
// windows of each window's percentile, or a high one of their rates.
type windowed struct {
	width time.Duration
	mu    sync.Mutex
	wins  []*recorder
	hits  []int64
}

func newWindowed(width time.Duration) *windowed { return &windowed{width: width} }

// at returns window k's recorder, growing the windows as needed; w.mu held.
func (w *windowed) at(offset time.Duration) int {
	k := int(offset / w.width)
	if k < 0 {
		k = 0
	}
	for len(w.wins) <= k {
		w.wins = append(w.wins, newRecorder())
		w.hits = append(w.hits, 0)
	}
	return k
}

// add records d for an operation at offset into the run.
func (w *windowed) add(offset, d time.Duration) {
	w.mu.Lock()
	r := w.wins[w.at(offset)]
	w.mu.Unlock()
	r.add(d)
}

// addLost records a lost operation at offset into the run.
func (w *windowed) addLost(offset time.Duration) {
	w.mu.Lock()
	r := w.wins[w.at(offset)]
	w.mu.Unlock()
	r.addLost()
}

// hit counts one event (a frame answered within its limit, say) at offset.
func (w *windowed) hit(offset time.Duration) {
	w.mu.Lock()
	w.hits[w.at(offset)]++
	w.mu.Unlock()
}

// first returns the first n windows, creating empty ones if the run had
// none there.
func (w *windowed) first(n int) ([]*recorder, []int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n > 0 {
		w.at(time.Duration(n-1) * w.width)
	}
	return append([]*recorder(nil), w.wins[:n]...), append([]int64(nil), w.hits[:n]...)
}

// latency returns the lowQ quantile over the first n windows of each
// window's p50 (p99 false) or p99 (p99 true), and the windows' figures. A
// window whose percentile fell on a lost operation counts as +Inf. A
// window holding too few samples for its percentile (one the host stalled
// through, say) has no figure and is left out; ok is false when the
// quantile is +Inf or fewer than half the windows have a figure.
func (w *windowed) latency(n int, p99 bool) (q float64, ok bool, ps []float64) {
	wins, _ := w.first(n)
	for _, r := range wins {
		s := r.summarize()
		v, ok, lost := s.P50, s.p50ok, s.P50 < 0
		if p99 {
			v, ok, lost = s.P99, s.ok, s.lostTail
		}
		switch {
		case lost:
			ps = append(ps, math.Inf(1))
		case ok:
			ps = append(ps, v)
		}
	}
	q = quantile(ps, lowQ)
	return q, 2*len(ps) >= n && n > 0 && !math.IsInf(q, 1), ps
}

// rate returns the 1-lowQ quantile over the first n windows of the recorded
// operations (hits false) or the counted events (hits true) per second,
// and the windows' rates.
func (w *windowed) rate(n int, hits bool) (float64, []float64) {
	wins, hs := w.first(n)
	rates := make([]float64, n)
	for k := range rates {
		c := hs[k]
		if !hits {
			wins[k].mu.Lock()
			c = wins[k].seen
			wins[k].mu.Unlock()
		}
		rates[k] = float64(c) / w.width.Seconds()
	}
	return quantile(rates, 1-lowQ), rates
}

// freeze keeps the recorder's summary and drops its samples, so the live
// heap measured at the end of a phase is the program's, not the
// benchmark's sample buffers. Later summaries return the kept one.
func (r *recorder) freeze() {
	s := r.summarize()
	r.mu.Lock()
	r.frozen, r.buf, r.rng = &s, nil, nil
	r.mu.Unlock()
}

// freeze freezes every window.
func (w *windowed) freeze() {
	w.mu.Lock()
	wins := append([]*recorder(nil), w.wins...)
	w.mu.Unlock()
	for _, r := range wins {
		r.freeze()
	}
}

// freezer is anything holding samples that must be frozen before the live
// heap is measured.
type freezer interface{ freeze() }

// programHeapBytes freezes the benchmark's sample holders and then
// measures the live heap.
func programHeapBytes(fs ...freezer) uint64 {
	for _, f := range fs {
		f.freeze()
	}
	return liveHeapBytes()
}

// rtSnap is a runtime/metrics reading.
type rtSnap struct {
	alloc    uint64
	gcCycles uint64
	pauses   *metrics.Float64Histogram
	sched    *metrics.Float64Histogram
}

const (
	rtAlloc    = "/gc/heap/allocs:bytes"
	rtCycles   = "/gc/cycles/total:gc-cycles"
	rtPauses   = "/sched/pauses/total/gc:seconds"
	rtSched    = "/sched/latencies:seconds"
	rtLiveHeap = "/gc/heap/live:bytes"
)

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rtAlloc}, {Name: rtCycles}, {Name: rtPauses}, {Name: rtSched}}
	metrics.Read(s)
	return rtSnap{
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		pauses:   s[2].Value.Float64Histogram(),
		sched:    s[3].Value.Float64Histogram(),
	}
}

// liveHeapBytes forces a collection and returns the heap the marked live
// objects occupy.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: rtLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// histP99 returns the p99 in microseconds of the events a runtime
// histogram gained between two readings, as the upper edge of the bucket
// holding it (the lower edge for the open-ended last bucket); 0 when no
// events were recorded.
func histP99(before, after *metrics.Float64Histogram) float64 {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		counts[i] = c - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			edge := after.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// runtimeDelta is what the Go runtime did between two readings.
type runtimeDelta struct {
	AllocBytes  uint64  `json:"alloc_bytes"`
	GCCycles    uint64  `json:"gc_cycles"`
	GCPauseP99  float64 `json:"gc_pause_p99_us"`
	SchedLatP99 float64 `json:"sched_latency_p99_us"`
}

func diffRuntime(a, b rtSnap) runtimeDelta {
	return runtimeDelta{
		AllocBytes:  b.alloc - a.alloc,
		GCCycles:    b.gcCycles - a.gcCycles,
		GCPauseP99:  histP99(a.pauses, b.pauses),
		SchedLatP99: histP99(a.sched, b.sched),
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) || math.IsInf(s[i+1], 1) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// hostProbe times a sum over a fixed 1 MB buffer for 200 ms and returns
// the median in microseconds. It touches none of the program, so it shows
// the state of the host's caches and memory around a run: on the 2-CPU
// reference host it read between about 45 and 200 µs over a few dozen
// runs, and a run taken while it reads high is slowed in every
// memory-bound figure. It goes in the details, never in a metric.
func hostProbe() float64 {
	buf := make([]uint64, 1<<17)
	for i := range buf {
		buf[i] = uint64(i)
	}
	var times []float64
	var acc uint64
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		t0 := time.Now()
		for _, v := range buf {
			acc += v
		}
		times = append(times, float64(time.Since(t0))/float64(time.Microsecond))
	}
	probeSink = acc
	return median(times)
}

// probeSink keeps the probe's sum alive.
var probeSink uint64
