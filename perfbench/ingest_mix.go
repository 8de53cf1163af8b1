package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/perception"
	"repro/internal/safety"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ingest_mix: the serving path. Two fleet instances at L0 sit behind an
// in-process ingest server on loopback, wired as simdrive -serve wires it:
// per-instance dispatch with its default worker pool, the default queue,
// telemetry Hooks and the aggregator. Two RFR1 connections first send
// frames open loop at a fixed rate well below capacity (frame latency),
// then closed loop with a fixed number of frames in flight (capacity).
const (
	ingestInstances = 2
	ingestConns     = 2
	// ingestWorkers and ingestDispatchQueue are simdrive -serve's
	// dispatcher sizing for a fleet of ingestInstances.
	ingestWorkers       = 4
	ingestDispatchQueue = 2*ingestInstances + 8
	// ingestPool is the number of distinct frames. A traced run recognizes
	// a frame at the dispatcher by its content, so the pool is far larger
	// than the frames one connection can have in flight.
	ingestPool = 4096
	// ingestLimit is the latency limit (due → RESULT) ok_within_limit
	// counts against.
	ingestLimit = 10 * time.Millisecond
	// ingestDrainTimeout bounds the wait for a step's last answers.
	ingestDrainTimeout = 30 * time.Second
	// ingestMaxInFlight caps one connection's frames awaiting an answer,
	// as the repository's own load generators do (simdrive -replay sends
	// at most 128): the server severs a client whose 256-message result
	// buffer fills, by design, as a slow client. Both connections' frames
	// together stay below the server's queue high watermark (48 of 64),
	// so the closed-loop step is never shed or told to back off. In the
	// open-loop step, time a frame waits for the cap counts as generator
	// lateness; its latency still runs from its due time.
	ingestMaxInFlight = 16
	// ingestClosedCeiling bounds the frames the closed-loop step can
	// send, in frames per second over both connections: several times
	// what the two instances serve.
	ingestClosedCeiling = 100000
)

// ingestSteps is the schedule, with each step's share of the run. The
// open-loop rate is fixed, not derived from a measured capacity, so two
// versions of the program are offered the same load; it is a fraction of
// what the two instances serve on the 2-CPU reference host even while
// other tenants slow it (about 6 000 frames/s then, 15 000 quiet). Steps
// near or past capacity were not steady enough there to gate on (see
// README.md).
var ingestSteps = []struct {
	name   string
	rate   float64
	share  float64
	closed bool
}{
	{"nominal", 2000, 0.5, false},
	{"capacity", ingestClosedCeiling, 0.5, true},
}

// Step indices: the untimed warm-up runs first at the nominal rate.
const (
	stepWarmup = iota
	stepNominal
	stepCapacity
)

// Answer kinds a frame can get.
const (
	ansNone uint8 = iota
	ansOK
	ansShed
	ansRejected
	ansError
	numAns
)

// ingestStep is one step of the schedule as run.
type ingestStep struct {
	loadStep
	closed bool    // closed loop: send whenever a frame is answered, until Dur
	pacers []pacer // per connection; start set when the step begins
	first  []int   // per connection: index of the step's first frame
	start  atomic.Int64
	lat    *recorder
	emerg  *recorder
	late   *recorder // generator lateness
	// latW holds the open-loop latencies split by due time into equal
	// windows, for the windowed metrics; in the closed-loop step it
	// counts the frames answered OK by when they were answered.
	latW *windowed
}

func (st *ingestStep) windows() int { return windowsIn(st.Dur, window) }

// ingestConn is one generator connection and everything recorded for it.
// Fields are written by one goroutine each: the sender (sent, sendErr,
// sentNS, lastSent), the reader (status, counts, within, readNS and the
// problem counts) and, in a traced run, the backend wrapper (subNS, resNS,
// routeNS).
type ingestConn struct {
	idx   int
	cl    *wireConn
	total int

	sent     atomic.Int64
	sentBy   []int64 // per step, written by the sender
	answered atomic.Int64
	sendErr  error
	// credits holds one token per frame awaiting an answer: the sender
	// puts one in before a frame goes out, the reader takes one out per
	// answer. readDone is closed when the reader stops.
	credits  chan struct{}
	readDone chan struct{}

	status       []uint8
	counts       [][numAns]int64 // per step
	within       []int64         // per step: OK within ingestLimit
	emergShed    int64
	advisories   int64
	mismatches   int64
	badMessages  int64
	firstProblem string

	traced                                bool
	sentNS, subNS, resNS, routeNS, readNS []atomic.Int64
	lastSent                              []atomic.Int64 // pool index → latest frame sent with it
}

// ingestRun is the shared, read-only plan of a phase.
type ingestRun struct {
	epoch    time.Time
	steps    []*ingestStep
	frames   []*tensor.Tensor
	refs     []perception.Detection
	poolPerm []int32
	classes  []safety.Criticality
	lateness *recorder
}

func (ir *ingestRun) pool(j int) int { return int(ir.poolPerm[j%len(ir.poolPerm)]) }

func (ir *ingestRun) class(c, j int) safety.Criticality {
	return ir.classes[(j*ingestConns+c)%len(ir.classes)]
}

// stepOf returns the step frame j of connection c belongs to.
func (ir *ingestRun) stepOf(c, j int) int {
	s := 0
	for s+1 < len(ir.steps) && j >= ir.steps[s+1].first[c] {
		s++
	}
	return s
}

func (ir *ingestRun) due(c, j int) time.Time {
	st := ir.steps[ir.stepOf(c, j)]
	p := st.pacers[c]
	p.start = ir.epoch.Add(time.Duration(st.start.Load()))
	return p.due(j - st.first[c])
}

// ingestPhase is one phase's merged figures.
type ingestPhase struct {
	steps     []*ingestStep
	conns     []*ingestConn
	rt        runtimeDelta
	heap      uint64
	sentMeas  int64
	spans     *spanStore
	selfUS    map[string]float64
	dispatch  *recorder
	subWait   *recorder
	unmatched int64
	lateness  *recorder
}

func runIngestMix(cfg config) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, detail: map[string]any{}}
	dr := newDrill(cfg.seed)
	r, setup, err := setupRig(ingestInstances, cfg.setupRep, dr.onSetup(out, cfg))
	if err != nil {
		return nil, err
	}
	defer r.fleet.Release()
	frames := framePool(cfg.seed, ingestPool)
	refs, err := r.references(0, frames)
	if err != nil {
		return nil, err
	}
	if _, err := poolIndex(frames); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	perm := make([]int32, ingestPool)
	for i, p := range rng.Perm(ingestPool) {
		perm[i] = int32(p)
	}
	classes := classMix(cfg.seed+1, 8192)

	var sched []map[string]any
	for _, s := range ingestSteps {
		loop := "open"
		if s.closed {
			loop = fmt.Sprintf("closed, %d in flight per connection, at most %v frames/s", ingestMaxInFlight, s.rate)
		}
		sched = append(sched, map[string]any{"step": s.name, "rate_fps": s.rate, "seconds": s.share * cfg.seconds.Seconds(), "loop": loop})
	}
	out.detail["setup_seconds"] = setup
	out.detail["sizes"] = map[string]any{
		"instances": ingestInstances, "connections": ingestConns, "workers": ingestWorkers,
		"dispatch_queue": ingestDispatchQueue, "frames_distinct": ingestPool, "level": 0,
		"latency_limit_us": ingestLimit.Microseconds(), "class_mix": "50/30/15/5",
		"schedule": sched, "reference_obstacle_share": obstacleShare(refs),
	}

	base, err := runIngestPhase(r, cfg, frames, refs, perm, classes, nil)
	if err != nil {
		return nil, err
	}
	checkIngest(out, base)
	out.detail["phase"] = ingestDetail(base)

	if cfg.trace {
		st := newLayerStats()
		tr, err := runIngestPhase(r, cfg, frames, refs, perm, classes, st)
		if err != nil {
			return nil, err
		}
		checkIngest(out, tr)
		if a, n := st.accepted.Load(), tr.answeredAccepted(); a != n {
			out.fail("ingest_mix: server accepted %d frames, clients got %d results", a, n)
		}
		pr, err := runProbes(r, frames[0])
		if err != nil {
			return nil, err
		}
		m := layerBase()
		addTiming(out, m, "", "ingest.enqueue_p99_us", st.enqueue.summarize())
		addTiming(out, m, "", "ingest.submit_wait_p99_us", tr.subWait.summarize())
		if a := st.accepted.Load(); a > 0 {
			m["ingest.shed_ratio"] = float64(st.shed.Load()) / float64(a)
		}
		m["ingest.reject_count"] = float64(st.rejected.Load())
		m["ingest.backpressure_count"] = float64(st.backpressure.Load())
		st.depthMu.Lock()
		m["ingest.queue_depth_max"] = float64(st.depthMax)
		st.depthMu.Unlock()
		addTiming(out, m, "fleet.dispatch_p50_us", "fleet.dispatch_p99_us", tr.dispatch.summarize())
		addTiming(out, m, "perception.detect_p50_us", "perception.detect_p99_us", st.detect.summarize())
		m["telemetry.hook_ns"] = st.hookMeanNS()
		addRuntime(m, tr.rt)
		m["gen.lateness_p99_us"] = tr.latenessP99()
		addProbes(m, out.detail, r, pr)
		m["trace.overhead_ratio"] = overhead(base.steps[stepNominal].lat.summarize(), tr.steps[stepNominal].lat.summarize())
		out.layers = m
		out.spans = tr.spans
		d := ingestDetail(tr)
		d["self_time_us_per_frame"] = tr.selfUS
		d["spans_dropped"] = tr.spans.dropped
		d["frames_unattributed"] = tr.unmatched
		out.detail["traced_phase"] = d
		out.attempted, out.failed = base.attempted()+tr.attempted(), base.failed()+tr.failed()
		return out, nil
	}

	out.attempted, out.failed = base.attempted(), base.failed()
	nom, capa := base.steps[stepNominal], base.steps[stepCapacity]
	addWindowed(out, out.e2e, "frame_p50_us", nom.latW, nom.windows(), false)
	// The tail goes in the details only: on the reference host it spreads
	// too widely between runs to gate on.
	_, _, p99s := nom.latW.latency(nom.windows(), true)
	perWindow(out, "frame_p99_us", p99s)
	addRate(out, out.e2e, "throughput_fps", capa.latW, capa.windows(), true)
	out.e2e["live_heap_mb"] = float64(base.heap) / (1 << 20)
	out.e2e["alloc_bytes_per_frame"] = float64(base.rt.AllocBytes) / float64(base.sentMeas)
	out.e2e["setup_s"] = median(setup)

	dr.slice(out, r)
	dr.report(out, r)
	return out, nil
}

func (ph *ingestPhase) stepCounts(s int) [numAns]int64 {
	var n [numAns]int64
	for _, c := range ph.conns {
		for k := range n {
			n[k] += c.counts[s][k]
		}
	}
	return n
}

func (ph *ingestPhase) stepWithin(s int) int64 {
	var n int64
	for _, c := range ph.conns {
		n += c.within[s]
	}
	return n
}

func (ph *ingestPhase) stepSent(s int) int64 {
	var n int64
	for _, c := range ph.conns {
		n += c.sentBy[s]
	}
	return n
}

// attempted counts the frames of the measured steps.
func (ph *ingestPhase) attempted() int64 { return ph.sentMeas }

// failed counts frames the backend failed. Shed and rejected frames are
// the service's designed answers under load; the per-step counts in the
// details show them, and they are not failures.
func (ph *ingestPhase) failed() int64 {
	var n int64
	for s := stepNominal; s <= stepCapacity; s++ {
		n += ph.stepCounts(s)[ansError]
	}
	return n
}

// answeredAccepted counts frames the server accepted, as the clients saw
// them: every RESULT, whether served, shed or failed.
func (ph *ingestPhase) answeredAccepted() int64 {
	var n int64
	for s := range ph.steps {
		c := ph.stepCounts(s)
		n += c[ansOK] + c[ansShed] + c[ansError]
	}
	return n
}

// latenessP99 is how late the generator sent, across the measured steps.
func (ph *ingestPhase) latenessP99() float64 { return ph.lateness.summarize().P99 }

func ingestDetail(ph *ingestPhase) map[string]any {
	var steps []map[string]any
	for s, st := range ph.steps {
		c := ph.stepCounts(s)
		steps = append(steps, map[string]any{
			"step": st.Name, "rate_fps": st.Rate, "sent": ph.stepSent(s),
			"ok": c[ansOK], "shed": c[ansShed], "rejected": c[ansRejected], "errored": c[ansError],
			"ok_within_limit": ph.stepWithin(s), "latency": st.lat.summarize(), "emergency": st.emerg.summarize(),
			"closed_loop":        st.closed,
			"generator_lateness": st.late.summarize(),
		})
	}
	var adv int64
	for _, c := range ph.conns {
		adv += c.advisories
	}
	return map[string]any{"steps": steps, "advisories": adv, "runtime": ph.rt}
}

func checkIngest(out *outcome, ph *ingestPhase) {
	for _, c := range ph.conns {
		if c.sendErr != nil {
			out.fail("ingest_mix: connection %d: send: %v", c.idx, c.sendErr)
		}
		if c.mismatches > 0 || c.badMessages > 0 {
			out.fail("ingest_mix: connection %d: %d results differ from the L0 reference, %d unexpected messages; first: %s",
				c.idx, c.mismatches, c.badMessages, c.firstProblem)
		}
		if c.emergShed > 0 {
			out.fail("ingest_mix: connection %d: %d Emergency frames were shed", c.idx, c.emergShed)
		}
		if a, s := c.answered.Load(), c.sent.Load(); a != s {
			out.fail("ingest_mix: connection %d: %d frames sent, %d answered", c.idx, s, a)
		}
	}
}

// poolIndex maps a frame's content to its pool index. A collision would
// make the mapping ambiguous and is refused.
func poolIndex(frames []*tensor.Tensor) (map[uint64]int32, error) {
	idx := make(map[uint64]int32, len(frames))
	for i, f := range frames {
		k := frameKey(f)
		if _, dup := idx[k]; dup {
			return nil, fmt.Errorf("ingest_mix: frame pool has two frames with key %#x", k)
		}
		idx[k] = int32(i)
	}
	return idx, nil
}

// frameKey is an FNV-1a hash of a frame's pixels.
func frameKey(f *tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range f.Data() {
		h = (h ^ uint64(math.Float32bits(v))) * 1099511628211
	}
	return h
}

// tracedBackend wraps the dispatcher in a traced run. It recognizes each
// submitted frame by content, records client send → SubmitTagged and
// SubmitTagged → Result, and hands results to the server's router with
// their original tags.
type tracedBackend struct {
	inner    *fleet.Dispatcher
	out      chan fleet.Result
	done     chan struct{}
	wg       sync.WaitGroup
	ir       *ingestRun
	conns    []*ingestConn
	index    map[uint64]int32
	dispatch *recorder
	subWait  *recorder
}

type tracedTag struct {
	orig any
	conn int
	j    int64
	sub  time.Time
}

func newTracedBackend(d *fleet.Dispatcher, ir *ingestRun, conns []*ingestConn, index map[uint64]int32) *tracedBackend {
	b := &tracedBackend{
		inner: d, out: make(chan fleet.Result, ingestDispatchQueue), done: make(chan struct{}),
		ir: ir, conns: conns, index: index, dispatch: newRecorder(), subWait: newRecorder(),
	}
	b.wg.Add(1)
	go b.forward()
	return b
}

func (b *tracedBackend) SubmitTagged(model string, frame *tensor.Tensor, tag any) (int64, error) {
	t := time.Now()
	tt := &tracedTag{orig: tag, conn: -1, j: -1, sub: t}
	if c, err := strconv.Atoi(strings.TrimPrefix(model, "car")); err == nil && c >= 0 && c < len(b.conns) {
		if p, ok := b.index[frameKey(frame)]; ok {
			conn := b.conns[c]
			j := conn.lastSent[p].Load()
			if j >= 0 {
				tt.conn, tt.j = c, j
				conn.subNS[j].Store(t.Sub(b.ir.epoch).Nanoseconds())
				b.subWait.add(time.Duration(t.Sub(b.ir.epoch).Nanoseconds() - conn.sentNS[j].Load()))
			}
		}
	}
	return b.inner.SubmitTagged(model, frame, tt)
}

func (b *tracedBackend) Results() <-chan fleet.Result { return b.out }

// forward relays results until the dispatcher closes its stream.
func (b *tracedBackend) forward() {
	defer b.wg.Done()
	defer close(b.out)
	for res := range b.inner.Results() {
		t := time.Now()
		tt := res.Tag.(*tracedTag)
		b.dispatch.add(t.Sub(tt.sub))
		if tt.j >= 0 {
			conn := b.conns[tt.conn]
			conn.resNS[tt.j].Store(t.Sub(b.ir.epoch).Nanoseconds())
			conn.routeNS[tt.j].Store(time.Since(b.ir.epoch).Nanoseconds())
		}
		res.Tag = tt.orig
		select {
		case b.out <- res:
		case <-b.done:
			return
		}
	}
}

// stop ends the relay once the dispatcher is closed.
func (b *tracedBackend) stop() {
	close(b.done)
	b.wg.Wait()
}

// runIngestPhase stands the server up, runs the warm-up and the measured
// steps with a drain after each, and tears everything down. With st
// non-nil the Observer and Backend seams are teed and frame spans kept.
func runIngestPhase(r *rig, cfg config, frames []*tensor.Tensor, refs []perception.Detection,
	perm []int32, classes []safety.Criticality, st *layerStats) (*ingestPhase, error) {
	ir := &ingestRun{frames: frames, refs: refs, poolPerm: perm, classes: classes, lateness: newRecorder()}
	plan := []*ingestStep{{loadStep: loadStep{Name: "warmup", Rate: ingestSteps[0].rate, Dur: warmup}}}
	for _, s := range ingestSteps {
		plan = append(plan, &ingestStep{loadStep: loadStep{Name: s.name, Rate: s.rate, Dur: time.Duration(s.share * float64(cfg.seconds))}, closed: s.closed})
	}
	totals := make([]int, ingestConns)
	for _, st := range plan {
		st.pacers, st.first = pacersFor(st.loadStep, ingestConns), make([]int, ingestConns)
		st.lat, st.emerg, st.late = newRecorder(), newRecorder(), newRecorder()
		st.latW = newWindowed(st.Dur / time.Duration(st.windows()))
		for c := range st.first {
			st.first[c] = totals[c]
			totals[c] += st.pacers[c].n
		}
		ir.steps = append(ir.steps, st)
	}

	reg := telemetry.NewRegistry()
	reg.StartAggregator(250 * time.Millisecond)
	defer reg.Close()
	hooks := telemetry.NewHooks(reg)
	var obs ingest.Observer = hooks
	if st != nil {
		obs = &tee{h: hooks, st: st}
		det := &tee{st: st}
		for _, inst := range r.insts {
			inst.SetObserver(det)
		}
		defer func() {
			for _, inst := range r.insts {
				inst.SetObserver(nil)
			}
		}()
	}
	disp, err := fleet.NewDispatcher(r.fleet, ingestWorkers, ingestDispatchQueue)
	if err != nil {
		return nil, err
	}

	conns := make([]*ingestConn, ingestConns)
	for c := range conns {
		n := totals[c]
		conns[c] = &ingestConn{idx: c, total: n, status: make([]uint8, n), counts: make([][numAns]int64, len(ir.steps)), sentBy: make([]int64, len(ir.steps)),
			within: make([]int64, len(ir.steps)), credits: make(chan struct{}, ingestMaxInFlight), readDone: make(chan struct{})}
		if st != nil {
			ic := conns[c]
			ic.traced = true
			ic.sentNS, ic.subNS, ic.resNS, ic.routeNS, ic.readNS = make([]atomic.Int64, n), make([]atomic.Int64, n), make([]atomic.Int64, n), make([]atomic.Int64, n), make([]atomic.Int64, n)
			ic.lastSent = make([]atomic.Int64, ingestPool)
			for p := range ic.lastSent {
				ic.lastSent[p].Store(-1)
			}
		}
	}
	var be ingest.Backend = disp
	var tb *tracedBackend
	ph := &ingestPhase{steps: ir.steps, conns: conns}
	if st != nil {
		index, err := poolIndex(frames)
		if err != nil {
			disp.Close()
			return nil, err
		}
		tb = newTracedBackend(disp, ir, conns, index)
		be = tb
		ph.dispatch, ph.subWait = tb.dispatch, tb.subWait
	}
	srv, err := ingest.Listen(ingest.Config{Backend: be, Observer: obs}, "127.0.0.1:0")
	if err != nil {
		disp.Close()
		if tb != nil {
			tb.stop()
		}
		return nil, err
	}
	teardown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), ingestDrainTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		disp.Close()
		if tb != nil {
			tb.stop()
		}
		return err
	}

	ir.epoch = time.Now()
	var readers sync.WaitGroup
	for c, ic := range conns {
		cl, err := dialWire(srv.Addr().String(), "bench", fmt.Sprintf("car%d", c))
		if err != nil {
			for _, prev := range conns[:c] {
				prev.cl.Close()
			}
			readers.Wait()
			_ = teardown() // the dial error is the one to report
			return nil, err
		}
		ic.cl = cl
		readers.Add(1)
		go func(ic *ingestConn) {
			defer readers.Done()
			ic.read(ir)
		}(ic)
	}

	var before rtSnap
	var runErr error
	for s, step := range ir.steps {
		if s == stepNominal {
			before = readRuntime()
		}
		step.start.Store(time.Since(ir.epoch).Nanoseconds() + int64(time.Millisecond))
		var senders sync.WaitGroup
		for _, ic := range conns {
			senders.Add(1)
			go func(ic *ingestConn) {
				defer senders.Done()
				ic.send(ir, s, s == stepNominal)
			}(ic)
		}
		senders.Wait()
		if err := waitAnswered(conns); err != nil {
			runErr = fmt.Errorf("ingest_mix: step %s: %w", step.Name, err)
			break
		}
	}
	if runErr == nil {
		ph.rt = diffRuntime(before, readRuntime())
		fs := []freezer{ir.lateness}
		for _, st := range ir.steps {
			fs = append(fs, st.lat, st.emerg, st.late, st.latW)
		}
		ph.heap = programHeapBytes(fs...)
	}
	for _, ic := range conns {
		ic.cl.Close()
	}
	readers.Wait()
	if err := teardown(); err != nil && runErr == nil {
		runErr = fmt.Errorf("ingest_mix: drain: %w", err)
	}
	if runErr != nil {
		return nil, runErr
	}
	for s := stepNominal; s <= stepCapacity; s++ {
		ph.sentMeas += ph.stepSent(s)
	}
	ph.lateness = ir.lateness
	if st != nil {
		if err := ph.buildSpans(ir); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// wireConn is a generator connection speaking RFR1 through the ingest
// package's wire format. Answers are read through a buffer, so the
// generator drains results with few system calls and leaves the CPU to the
// server.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialWire(addr, tenant, vehicle string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 20)
	}
	w := &wireConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
	if err := w.hello(tenant, vehicle); err != nil {
		c.Close()
		return nil, fmt.Errorf("ingest_mix: handshake: %w", err)
	}
	return w, nil
}

func (w *wireConn) hello(tenant, vehicle string) error {
	if err := w.c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	if err := ingest.WriteMessage(w.c, &ingest.Message{Type: ingest.TypeHello, Tenant: tenant, Vehicle: vehicle}, 0); err != nil {
		return err
	}
	m, err := ingest.ReadMessage(w.br, 0)
	if err != nil {
		return err
	}
	if m.Type != ingest.TypeWelcome {
		return fmt.Errorf("got message type %d, want WELCOME", m.Type)
	}
	return w.c.SetDeadline(time.Time{})
}

func (w *wireConn) read() (*ingest.Message, error) { return ingest.ReadMessage(w.br, 0) }

func (w *wireConn) Close() error { return w.c.Close() }

// waitAnswered waits until every frame sent has had its answer.
func waitAnswered(conns []*ingestConn) error {
	deadline := time.Now().Add(ingestDrainTimeout)
	for {
		done := true
		for _, ic := range conns {
			if ic.sendErr != nil {
				return ic.sendErr
			}
			if ic.answered.Load() < ic.sent.Load() {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("answers still missing after %s", ingestDrainTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// send runs one connection's schedule for step s, recording generator
// lateness when measure is set.
func (ic *ingestConn) send(ir *ingestRun, s int, measure bool) {
	st := ir.steps[s]
	p := st.pacers[ic.idx]
	p.start = ir.epoch.Add(time.Duration(st.start.Load()))
	if st.closed {
		ic.sendClosed(ir, s, p)
		return
	}
	var buf []byte
	for i := 0; i < p.n; {
		sendAt, late := p.wait(i, wallClock{})
		if !ic.tryCredit() {
			// At the in-flight cap: wait for an answer.
			select {
			case ic.credits <- struct{}{}:
			case <-ic.readDone:
				ic.sendErr = fmt.Errorf("connection closed with %d frames unanswered", len(ic.credits))
				return
			}
			sendAt = time.Now()
			late = sendAt.Sub(p.due(i))
		}
		// Every frame already due by the time the generator wakes goes out
		// in the same write, as frames queued at a gateway would, as far
		// as the in-flight cap allows.
		buf = buf[:0]
		for n := 0; i < p.n && n < maxCoalesce; i, n = i+1, n+1 {
			j := st.first[ic.idx] + i
			if n > 0 {
				if p.due(i).After(sendAt) || !ic.tryCredit() {
					break
				}
				late = sendAt.Sub(p.due(i))
			}
			if measure {
				ir.lateness.add(late)
				st.late.add(late)
			}
			pi := ir.pool(j)
			if ic.traced {
				ic.sentNS[j].Store(sendAt.Sub(ir.epoch).Nanoseconds())
				ic.lastSent[pi].Store(int64(j))
			}
			var err error
			if buf, err = appendFrame(buf, uint64(j+1), ir.class(ic.idx, j), ir.frames[pi]); err != nil {
				ic.sendErr = err
				return
			}
			ic.sent.Add(1)
			ic.sentBy[s]++
		}
		if _, err := ic.cl.c.Write(buf); err != nil {
			ic.sendErr = err
			return
		}
	}
}

// sendClosed runs a closed-loop step: from the step's start until its
// duration has passed, it sends a frame whenever fewer than
// ingestMaxInFlight are awaiting an answer, with every frame the free
// credits allow in one write.
func (ic *ingestConn) sendClosed(ir *ingestRun, s int, p pacer) {
	st := ir.steps[s]
	time.Sleep(time.Until(p.start))
	end := p.start.Add(st.Dur)
	var buf []byte
	for i := 0; i < p.n && time.Now().Before(end); {
		select {
		case ic.credits <- struct{}{}:
		case <-ic.readDone:
			ic.sendErr = fmt.Errorf("connection closed with %d frames unanswered", len(ic.credits))
			return
		}
		buf = buf[:0]
		for n := 0; i < p.n && n < maxCoalesce; i, n = i+1, n+1 {
			if n > 0 && !ic.tryCredit() {
				break
			}
			j := st.first[ic.idx] + i
			pi := ir.pool(j)
			if ic.traced {
				ic.sentNS[j].Store(time.Since(ir.epoch).Nanoseconds())
				ic.lastSent[pi].Store(int64(j))
			}
			var err error
			if buf, err = appendFrame(buf, uint64(j+1), ir.class(ic.idx, j), ir.frames[pi]); err != nil {
				ic.sendErr = err
				return
			}
			ic.sent.Add(1)
			ic.sentBy[s]++
		}
		if _, err := ic.cl.c.Write(buf); err != nil {
			ic.sendErr = err
			return
		}
	}
}

// tryCredit takes an in-flight credit if one is free.
func (ic *ingestConn) tryCredit() bool {
	select {
	case ic.credits <- struct{}{}:
		return true
	default:
		return false
	}
}

// maxCoalesce bounds the frames one write carries.
const maxCoalesce = 32

// appendFrame appends one length-prefixed RFR1 FRAME message.
func appendFrame(buf []byte, seq uint64, class safety.Criticality, frame *tensor.Tensor) ([]byte, error) {
	payload, err := (&ingest.Message{Type: ingest.TypeFrame, Seq: seq, Class: class, Frame: frame}).Encode()
	if err != nil {
		return buf, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...), nil
}

// read consumes the connection's answers until it is closed.
func (ic *ingestConn) read(ir *ingestRun) {
	defer close(ic.readDone)
	problem := func(format string, args ...any) {
		ic.badMessages++
		if ic.firstProblem == "" {
			ic.firstProblem = fmt.Sprintf(format, args...)
		}
	}
	for {
		m, err := ic.cl.read()
		if err != nil {
			return
		}
		now := time.Now()
		if m.Type == ingest.TypeRetryAfter && m.Seq == 0 {
			ic.advisories++
			continue
		}
		if m.Type != ingest.TypeResult && m.Type != ingest.TypeRetryAfter {
			problem("unexpected message type %d", m.Type)
			continue
		}
		j := int(m.Seq) - 1
		if j < 0 || j >= ic.total || ic.status[j] != ansNone {
			problem("answer for unknown or already answered frame %d", m.Seq)
			continue
		}
		s := ir.stepOf(ic.idx, j)
		st := ir.steps[s]
		stepStart := ir.epoch.Add(time.Duration(st.start.Load()))
		due := ir.due(ic.idx, j)
		lat := now.Sub(due)
		offset := due.Sub(stepStart)
		if st.closed {
			// Closed loop: frames have no due time; the step counts
			// answers by when they arrive.
			offset = now.Sub(stepStart)
		}
		emergency := ir.class(ic.idx, j) == safety.Emergency
		kind := ansRejected
		if m.Type == ingest.TypeResult {
			switch m.Status {
			case ingest.StatusOK:
				kind = ansOK
			case ingest.StatusShed:
				kind = ansShed
			default:
				kind = ansError
			}
		}
		ic.status[j] = kind
		ic.counts[s][kind]++
		if kind == ansOK {
			want := ir.refs[ir.pool(j)]
			got := perception.Detection{Obstacle: m.Obstacle, Confidence: m.Confidence, Uncertainty: m.Uncertainty}
			if !sameDetection(got, want) {
				ic.mismatches++
				if ic.firstProblem == "" {
					ic.firstProblem = fmt.Sprintf("frame %d (pool %d): got %+v, want %+v", j, ir.pool(j), got, want)
				}
			}
			switch {
			case st.closed:
				st.latW.hit(offset)
			default:
				st.lat.add(lat)
				st.latW.add(offset, lat)
				if emergency {
					st.emerg.add(lat)
				}
				if lat <= ingestLimit {
					ic.within[s]++
				}
			}
			if ic.traced {
				ic.readNS[j].Store(now.Sub(ir.epoch).Nanoseconds())
			}
		} else {
			st.lat.addLost()
			st.latW.addLost(offset)
			if emergency {
				st.emerg.addLost()
				if kind == ansShed {
					ic.emergShed++
				}
			}
		}
		ic.answered.Add(1)
		<-ic.credits
	}
}

// buildSpans turns the traced phase's per-frame timestamps into spans —
// frame (due → RESULT read, at the client), ingest (client send → result
// handed to the router) and dispatch (SubmitTagged → Result) — keeps an
// even sample of them, and checks that each frame's self times add up to
// its root span.
func (ph *ingestPhase) buildSpans(ir *ingestRun) error {
	var fs []frameStamps
	for _, ic := range ph.conns {
		for j := 0; j < ic.total; j++ {
			if ic.status[j] != ansOK {
				continue
			}
			// A closed-loop frame is due when it is sent.
			due := ir.due(ic.idx, j).Sub(ir.epoch).Nanoseconds()
			if ir.steps[ir.stepOf(ic.idx, j)].closed {
				due = ic.sentNS[j].Load()
			}
			fs = append(fs, frameStamps{
				id:  int64(ic.idx)<<32 | int64(j),
				due: due, sent: ic.sentNS[j].Load(),
				sub: ic.subNS[j].Load(), res: ic.resNS[j].Load(), route: ic.routeNS[j].Load(), read: ic.readNS[j].Load(),
			})
		}
	}
	kept, unattributed, err := frameTraces(fs, spanCap/3)
	ph.unmatched = unattributed
	if err != nil {
		return fmt.Errorf("ingest_mix: %w", err)
	}
	ph.spans = newSpanStore(ir.epoch)
	ph.spans.add(kept...)
	self, traces, err := selfTimes(kept, "frame")
	if err != nil {
		return fmt.Errorf("ingest_mix: %w", err)
	}
	ph.selfUS = perTrace(self, traces)
	return nil
}

// frameStamps are one served ingest frame's timestamps, in nanoseconds
// since the traced phase began. sub, res and route are zero when the
// backend wrapper did not attribute a submission to the frame.
type frameStamps struct {
	id                               int64
	due, sent, sub, res, route, read int64
}

// maxUnattributed is the largest share of served frames the backend
// wrapper may fail to attribute. It recognizes a frame by its content, and
// a connection's in-flight cap is far below the frames between two uses of
// the same content, so on a correct run it attributes every frame.
const maxUnattributed = 0.001

// frameTraces builds the three spans of every attributed frame, keeping
// about maxTraces frames spread evenly over the run. A frame whose
// timestamps do not nest is an error, and so are more than
// maxUnattributed unattributed frames.
func frameTraces(fs []frameStamps, maxTraces int) (kept []span, unattributed int64, err error) {
	every := int64(len(fs)/maxTraces) + 1
	var n int64
	for _, f := range fs {
		if f.sub == 0 || f.res == 0 || f.route == 0 {
			unattributed++
			continue
		}
		if !(f.due <= f.sent && f.sent <= f.sub && f.sub <= f.res && f.res <= f.route && f.route <= f.read) {
			return nil, unattributed, fmt.Errorf("frame %#x: spans do not nest: due %d, sent %d, submitted %d, result %d, routed %d, read %d",
				f.id, f.due, f.sent, f.sub, f.res, f.route, f.read)
		}
		if n++; n%every != 0 {
			continue
		}
		kept = append(kept,
			span{Trace: f.id, Name: "frame", Start: f.due, End: f.read},
			span{Trace: f.id, Name: "ingest", Parent: "frame", Start: f.sent, End: f.route},
			span{Trace: f.id, Name: "dispatch", Parent: "ingest", Start: f.sub, End: f.res},
		)
	}
	if float64(unattributed) > maxUnattributed*float64(len(fs)) {
		return nil, unattributed, fmt.Errorf("%d of %d served frames not attributed to a submission", unattributed, len(fs))
	}
	return kept, unattributed, nil
}
