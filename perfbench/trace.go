package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call at a layer boundary. Spans of one frame (or one
// closed-loop tick) share Trace; Parent names the span that caused it.
// Times are nanoseconds since the traced phase began.
type span struct {
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanCap bounds the spans a traced run keeps in memory; later spans are
// counted as dropped, never written.
const spanCap = 1 << 16

// spanStore keeps spans in memory until the run writes them out.
type spanStore struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanStore(epoch time.Time) *spanStore {
	return &spanStore{epoch: epoch, spans: make([]span, 0, spanCap)}
}

// ns converts a wall time to the store's clock.
func (s *spanStore) ns(t time.Time) int64 { return t.Sub(s.epoch).Nanoseconds() }

// add keeps one trace's spans together: all of them or none.
func (s *spanStore) add(sps ...span) {
	s.mu.Lock()
	if len(s.spans)+len(sps) <= spanCap {
		s.spans = append(s.spans, sps...)
	} else {
		s.dropped += int64(len(sps))
	}
	s.mu.Unlock()
}

// write saves the spans as JSON lines.
func (s *spanStore) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for i := range s.spans {
		if err := enc.Encode(&s.spans[i]); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time — its duration minus the part
// of it that its child spans cover — summed by span name, and checks that
// the self times of every complete trace add up to its root span's
// duration. root names the span with no parent.
func selfTimes(spans []span, root string) (byName map[string]time.Duration, traces int, err error) {
	byTrace := map[int64][]span{}
	for _, sp := range spans {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	byName = map[string]time.Duration{}
	for id, sps := range byTrace {
		var rootDur, sum int64
		hasRoot := false
		for _, sp := range sps {
			self := (sp.End - sp.Start) - covered(sp, sps)
			byName[sp.Name] += time.Duration(self)
			sum += self
			if sp.Name == root {
				rootDur, hasRoot = sp.End-sp.Start, true
			}
		}
		if !hasRoot {
			continue
		}
		if sum != rootDur {
			return nil, traces, fmt.Errorf("trace %d: self times sum to %dns, root %q spans %dns", id, sum, root, rootDur)
		}
		traces++
	}
	return byName, traces, nil
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, sps []span) int64 {
	var iv [][2]int64
	for _, c := range sps {
		if c.Parent != parent.Name {
			continue
		}
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	end = parent.Start
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		if x[0] > end {
			end = x[0]
		}
		total += x[1] - end
		end = x[1]
	}
	return total
}

// layerStats aggregates what the observer tees and stack wrappers see in a
// traced run.
type layerStats struct {
	hookNS, hookCalls atomic.Int64

	enqueue                                *recorder
	accepted, rejected, shed, backpressure atomic.Int64
	depthMu                                sync.Mutex
	depth                                  map[string]int
	depthMax                               int
	detect                                 *recorder
	tickNoSwitch                           *recorder
	switches, escalations, violations      atomic.Int64
	restoreTransitions, restoreWeights     atomic.Int64
}

func newLayerStats() *layerStats {
	return &layerStats{
		enqueue:      newRecorder(),
		depth:        map[string]int{},
		detect:       newRecorder(),
		tickNoSwitch: newRecorder(),
	}
}

// hookMeanNS is the mean time of one call into telemetry Hooks.
func (st *layerStats) hookMeanNS() float64 {
	if n := st.hookCalls.Load(); n > 0 {
		return float64(st.hookNS.Load()) / float64(n)
	}
	return 0
}

// tee sits on the program's observer seams in a traced run. It records
// what the seam reports into layerStats and forwards every call to the
// telemetry Hooks the workload wires (h, nil where the workload has none),
// timing each forwarded call. One tee per governed vehicle: prevLevel is
// that vehicle's last applied level.
type tee struct {
	h         *telemetry.Hooks
	st        *layerStats
	prevLevel int
}

func (t *tee) hooked(t0 time.Time) {
	t.st.hookNS.Add(int64(time.Since(t0)))
	t.st.hookCalls.Add(1)
}

// ingest.Observer

func (t *tee) ObserveIngestAccepted(class string) {
	t.st.accepted.Add(1)
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveIngestAccepted(class)
		t.hooked(t0)
	}
}

func (t *tee) ObserveIngestRejected(reason string) {
	t.st.rejected.Add(1)
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveIngestRejected(reason)
		t.hooked(t0)
	}
}

func (t *tee) ObserveIngestShed(class string) {
	t.st.shed.Add(1)
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveIngestShed(class)
		t.hooked(t0)
	}
}

func (t *tee) ObserveIngestBackpressure() {
	t.st.backpressure.Add(1)
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveIngestBackpressure()
		t.hooked(t0)
	}
}

func (t *tee) SetIngestConnections(n int) {
	if t.h != nil {
		t0 := time.Now()
		t.h.SetIngestConnections(n)
		t.hooked(t0)
	}
}

func (t *tee) SetIngestQueueDepth(class string, depth int) {
	t.st.depthMu.Lock()
	t.st.depth[class] = depth
	total := 0
	for _, d := range t.st.depth {
		total += d
	}
	if total > t.st.depthMax {
		t.st.depthMax = total
	}
	t.st.depthMu.Unlock()
	if t.h != nil {
		t0 := time.Now()
		t.h.SetIngestQueueDepth(class, depth)
		t.hooked(t0)
	}
}

func (t *tee) ObserveIngestEnqueue(elapsed time.Duration) {
	t.st.enqueue.add(elapsed)
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveIngestEnqueue(elapsed)
		t.hooked(t0)
	}
}

func (t *tee) ObserveIngestFrameLatency(elapsed time.Duration) {
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveIngestFrameLatency(elapsed)
		t.hooked(t0)
	}
}

// perception.FrameObserver

func (t *tee) ObserveFrame(elapsed time.Duration) {
	t.st.detect.add(elapsed)
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveFrame(elapsed)
		t.hooked(t0)
	}
}

// core.TransitionObserver, core.ParamTransitionObserver and
// core.StoreObserver: the tee replaces Hooks on the model, so it forwards
// every optional seam Hooks implements.

func (t *tee) ObserveTransition(from, to int, weights int64, elapsed time.Duration) {
	if to < from {
		t.st.restoreTransitions.Add(1)
		t.st.restoreWeights.Add(weights)
	}
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveTransition(from, to, weights, elapsed)
		t.hooked(t0)
	}
}

func (t *tee) ObserveParamTransition(from, to int, param string, weights int64, elapsed time.Duration) {
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveParamTransition(from, to, param, weights, elapsed)
		t.hooked(t0)
	}
}

func (t *tee) ObserveStoreCheck(ok bool) {
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveStoreCheck(ok)
		t.hooked(t0)
	}
}

func (t *tee) ObserveStoreResidency(privateBytes int64, sharedRatio float64) {
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveStoreResidency(privateBytes, sharedRatio)
		t.hooked(t0)
	}
}

// governor.TickObserver

func (t *tee) ObserveTick(tick, level int, switched, clamped, violated bool, elapsed time.Duration) {
	if switched {
		t.st.switches.Add(1)
		if level < t.prevLevel {
			t.st.escalations.Add(1)
		}
	} else {
		t.st.tickNoSwitch.add(elapsed)
	}
	if violated {
		t.st.violations.Add(1)
	}
	t.prevLevel = level
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveTick(tick, level, switched, clamped, violated, elapsed)
		t.hooked(t0)
	}
}

// health.Observer

func (t *tee) ObserveHealthFault(reason string, restored bool) {
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveHealthFault(reason, restored)
		t.hooked(t0)
	}
}

func (t *tee) ObserveHealthState(from, to int) {
	if t.h != nil {
		t0 := time.Now()
		t.h.ObserveHealthState(from, to)
		t.hooked(t0)
	}
}
