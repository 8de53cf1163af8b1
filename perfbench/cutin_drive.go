package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/governor"
	"repro/internal/health"
	"repro/internal/perception"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// cutin_drive: the paper's headline path. Vehicles are copy-on-write views,
// each driven by perception.RunStack over health.Guard(instance) with a
// Hysteresis governor, through seeded RandomTraffic drives whose ego-lane
// obstacles and fog window make the governor escalate and relax all the
// time. Telemetry Hooks are wired as simdrive -fleet -telemetry wires them.
const (
	cutinVehicles = 8
	// cutinGoroutines drive the vehicles in turn. One leaves the second
	// vCPU to the runtime's GC workers and the telemetry aggregator; with
	// two, both vCPUs were saturated and every frame figure depended on
	// both running at full speed at once, which on the reference host
	// (see lowQ) some runs never saw: the frame rate moved by 0.30 of its
	// median over ten runs.
	cutinGoroutines = 1
	// cutinTicks is one drive's length; a goroutine checks its deadline
	// between drives, so a run overshoots it by at most one drive.
	cutinTicks   = 20000
	cutinDensity = 0.01
	cutinDwell   = 20
	// cutinLimit is the latency limit ok_within_limit counts against.
	cutinLimit = time.Millisecond
)

// cutinPhase is the shared record of one measured phase.
type cutinPhase struct {
	measure                     bool
	start                       time.Time
	frame, emerg, restore, safe *recorder
	frameW                      *windowed // by Detect start
	guardSelf, innerDetect      *recorder
	frames, within, failsafe    atomic.Int64
	drives, violations          atomic.Int64
	classTicks                  [safety.NumClasses]atomic.Int64
	mu                          sync.Mutex
	problems                    []string
	elapsed                     time.Duration
	rt                          runtimeDelta
	heap                        uint64
}

func (ph *cutinPhase) fail(format string, args ...any) {
	ph.mu.Lock()
	ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	ph.mu.Unlock()
}

// innerStack sits below the Guard, directly above the instance, so the
// Guard's own cost is the outer Detect time minus this one.
type innerStack struct {
	perception.Stack
	ph     *cutinPhase
	t0, t1 time.Time
}

func (s *innerStack) Detect(frame *tensor.Tensor) (perception.Detection, error) {
	s.t0 = time.Now()
	det, err := s.Stack.Detect(frame)
	s.t1 = time.Now()
	if s.ph.measure {
		s.ph.innerDetect.add(s.t1.Sub(s.t0))
	}
	return det, err
}

// measuredStack is the benchmark's wrapper above the Guard: what the
// closed loop calls, timed. Its fields besides ph are touched only by the
// goroutine driving the vehicle.
type measuredStack struct {
	perception.Stack
	ph       *cutinPhase
	inner    *innerStack
	spans    *spanStore
	vehicle  int64
	ticks    int64
	class    safety.Criticality
	escStart time.Time
	tick0    time.Time
	tick1    time.Time
}

func (s *measuredStack) Tick(tick int, a safety.Assessment) (governor.Decision, error) {
	prev := s.Stack.Current()
	t0 := time.Now()
	d, err := s.Stack.Tick(tick, a)
	t1 := time.Now()
	s.class, s.tick0, s.tick1 = a.Class, t0, t1
	if d.Switched && d.Applied < prev && s.ph.measure {
		s.ph.restore.add(t1.Sub(t0))
		s.escStart = t0
	}
	return d, err
}

func (s *measuredStack) Detect(frame *tensor.Tensor) (perception.Detection, error) {
	t0 := time.Now()
	det, err := s.Stack.Detect(frame)
	t1 := time.Now()
	if !s.ph.measure {
		return det, err
	}
	lat, offset := t1.Sub(t0), t0.Sub(s.ph.start)
	s.ph.frames.Add(1)
	s.ph.frame.add(lat)
	s.ph.frameW.add(offset, lat)
	s.ph.classTicks[s.class].Add(1)
	if det == health.FailSafe {
		s.ph.failsafe.Add(1)
	} else if lat <= cutinLimit {
		s.ph.within.Add(1)
	}
	if s.class > safety.Nominal {
		s.ph.emerg.add(lat)
	}
	if !s.escStart.IsZero() {
		s.ph.safe.add(t1.Sub(s.escStart))
		s.escStart = time.Time{}
	}
	if s.inner != nil {
		s.ph.guardSelf.add(lat - s.inner.t1.Sub(s.inner.t0))
		id := s.vehicle<<32 | s.ticks
		sp := s.spans
		sp.add(
			span{Trace: id, Name: "tick", Start: sp.ns(s.tick0), End: sp.ns(t1)},
			span{Trace: id, Name: "governor", Parent: "tick", Start: sp.ns(s.tick0), End: sp.ns(s.tick1)},
			span{Trace: id, Name: "guard", Parent: "tick", Start: sp.ns(t0), End: sp.ns(t1)},
			span{Trace: id, Name: "instance", Parent: "guard", Start: sp.ns(s.inner.t0), End: sp.ns(s.inner.t1)},
		)
	}
	s.ticks++
	return det, err
}

func runCutinDrive(cfg config) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, detail: map[string]any{}}
	// restore_p50_us comes from the restore drill, as on ingest_mix: the
	// governor's own restores mix level pairs in whatever proportion the
	// seed's traffic asks for, on vehicles whose weights the other vehicles
	// keep evicting from cache, and their median moved twofold between runs
	// on the reference host. Their figures go in the details.
	dr := newDrill(cfg.seed)
	r, setup, err := setupRig(cutinVehicles, cfg.setupRep, dr.onSetup(out, cfg))
	if err != nil {
		return nil, err
	}
	defer r.fleet.Release()
	reg := telemetry.NewRegistry()
	reg.StartAggregator(250 * time.Millisecond)
	defer reg.Close()
	hooks := make([]*telemetry.Hooks, cutinVehicles)
	sp := make([]float64, numLevels)
	for j, lvl := range r.views[0].Levels() {
		sp[j] = lvl.Sparsity
	}
	for i, inst := range r.insts {
		hooks[i] = telemetry.NewHooks(reg, telemetry.Label{Key: telemetry.LabelModel, Value: inst.Name()})
		hooks[i].SetLevels(sp)
	}
	out.detail["setup_seconds"] = setup
	out.detail["sizes"] = map[string]any{
		"vehicles": cutinVehicles, "goroutines": cutinGoroutines, "ticks_per_drive": cutinTicks,
		"traffic_density": cutinDensity, "dwell_ticks": cutinDwell,
		"latency_limit_us": cutinLimit.Microseconds(), "loop": "closed",
	}

	base, err := runCutinPhase(r, cfg, hooks, nil, nil)
	if err != nil {
		return nil, err
	}
	checkCutin(out, base)
	baseSum := base.frame.summarize()
	out.attempted += base.frames.Load()
	out.failed += base.failsafe.Load()
	out.detail["phase"] = map[string]any{
		"frames": base.frames.Load(), "ok_within_limit": base.within.Load(), "measured_s": base.elapsed.Seconds(),
		"drives": base.drives.Load(), "frame": baseSum,
		"emergency": base.emerg.summarize(), "restore": base.restore.summarize(),
		"safe_detect": base.safe.summarize(), "runtime": base.rt, "ticks_by_class": base.ticksByClass(),
	}

	if cfg.trace {
		st := newLayerStats()
		spans := newSpanStore(time.Now())
		tr, err := runCutinPhase(r, cfg, hooks, st, spans)
		if err != nil {
			return nil, err
		}
		checkCutin(out, tr)
		out.attempted += tr.frames.Load()
		out.failed += tr.failsafe.Load()
		pr, err := runProbes(r, framePool(cfg.seed, 1)[0])
		if err != nil {
			return nil, err
		}
		m := layerBase()
		addTiming(out, m, "perception.detect_p50_us", "perception.detect_p99_us", tr.innerDetect.summarize())
		m["health.guard_self_us"] = tr.guardSelf.summarize().P50
		addTiming(out, m, "governor.tick_p50_us", "", st.tickNoSwitch.summarize())
		m["governor.switches"] = float64(st.switches.Load())
		m["governor.escalations"] = float64(st.escalations.Load())
		m["governor.violations"] = float64(st.violations.Load())
		if n := st.restoreTransitions.Load(); n > 0 {
			m["core.weights_written_per_restore"] = float64(st.restoreWeights.Load()) / float64(n)
		}
		m["telemetry.hook_ns"] = st.hookMeanNS()
		addRuntime(m, tr.rt)
		addProbes(m, out.detail, r, pr)
		trSum := tr.frame.summarize()
		m["trace.overhead_ratio"] = overhead(baseSum, trSum)
		self, traces, err := selfTimes(spans.spans, "tick")
		if err != nil {
			out.fail("cutin_drive: %v", err)
		}
		out.layers = m
		out.spans = spans
		out.detail["traced_phase"] = map[string]any{
			"frames": tr.frames.Load(), "frame": trSum, "spans_dropped": spans.dropped,
			"self_time_us_per_tick": perTrace(self, traces),
		}
		return out, nil
	}

	n := windowsIn(cfg.seconds, window)
	addWindowed(out, out.e2e, "frame_p50_us", base.frameW, n, false)
	// The tail goes in the details only: on the reference host it spreads
	// too widely between runs to gate on.
	_, _, p99s := base.frameW.latency(n, true)
	perWindow(out, "frame_p99_us", p99s)
	frames := float64(base.frames.Load())
	addRate(out, out.e2e, "throughput_fps", base.frameW, n, false)
	out.e2e["live_heap_mb"] = float64(base.heap) / (1 << 20)
	out.e2e["alloc_bytes_per_frame"] = float64(base.rt.AllocBytes) / frames
	out.e2e["setup_s"] = median(setup)

	dr.slice(out, r)
	dr.report(out, r)
	return out, nil
}

func (ph *cutinPhase) ticksByClass() map[string]int64 {
	m := map[string]int64{}
	for c := range ph.classTicks {
		m[safety.Criticality(c).String()] = ph.classTicks[c].Load()
	}
	return m
}

// perTrace turns summed self times into microseconds per trace.
func perTrace(self map[string]time.Duration, traces int) map[string]float64 {
	m := map[string]float64{}
	if traces == 0 {
		return m
	}
	for name, d := range self {
		m[name] = float64(d) / float64(time.Microsecond) / float64(traces)
	}
	return m
}

func checkCutin(out *outcome, ph *cutinPhase) {
	out.problems = append(out.problems, ph.problems...)
	if v := ph.violations.Load(); v != 0 {
		out.fail("cutin_drive: %d ticks ran below the accuracy floor", v)
	}
}

// runCutinPhase wires every vehicle (a fresh governor and health monitor,
// the Hooks or, with st non-nil, tees in front of them), warms up, then
// lets the goroutines run drives until cfg.seconds have passed.
func runCutinPhase(r *rig, cfg config, hooks []*telemetry.Hooks, st *layerStats, spans *spanStore) (*cutinPhase, error) {
	ph := &cutinPhase{
		frame: newRecorder(), emerg: newRecorder(), restore: newRecorder(), safe: newRecorder(),
		guardSelf: newRecorder(), innerDetect: newRecorder(), frameW: newWindowed(window),
	}
	monitor := health.NewMonitor(health.Config{})
	stacks := make([]*measuredStack, len(r.insts))
	for i, inst := range r.insts {
		if err := inst.ApplyLevel(0); err != nil {
			return nil, err
		}
		var obs interface {
			health.Observer
			perception.FrameObserver
			governor.TickObserver
			// The model observer: telemetry.Hooks, or a tee that forwards
			// the optional per-parameter and store seams to it.
			ObserveTransition(from, to int, weights int64, elapsed time.Duration)
		} = hooks[i]
		if st != nil {
			obs = &tee{h: hooks[i], st: st}
		}
		inst.SetModelObserver(obs)
		inst.SetObserver(obs)
		if err := inst.AttachGovernor(&governor.Hysteresis{DwellTicks: cutinDwell}, safety.DefaultContract(), governor.WithObserver(obs)); err != nil {
			return nil, err
		}
		if err := monitor.Register(inst.Name(), inst, obs); err != nil {
			return nil, err
		}
		var below perception.Stack = inst
		ms := &measuredStack{ph: ph, spans: spans, vehicle: int64(i)}
		if st != nil {
			ms.inner = &innerStack{Stack: inst, ph: ph}
			below = ms.inner
		}
		ms.Stack = health.NewGuard(inst.Name(), below, monitor)
		stacks[i] = ms
	}

	drive := func(dur time.Duration, round0 int) {
		deadline := time.Now().Add(dur)
		var wg sync.WaitGroup
		for g := 0; g < cutinGoroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := round0; ; round++ {
					for v := g; v < len(stacks); v += cutinGoroutines {
						if !time.Now().Before(deadline) {
							return
						}
						driveOnce(r, ph, stacks[v], v, cfg.seed, round)
					}
				}
			}(g)
		}
		wg.Wait()
	}
	drive(warmup, 1<<20)
	ph.measure = true
	before := readRuntime()
	ph.start = time.Now()
	drive(cfg.seconds, 0)
	ph.elapsed = time.Since(ph.start)
	ph.rt = diffRuntime(before, readRuntime())
	ph.heap = programHeapBytes(ph.frame, ph.emerg, ph.restore, ph.safe, ph.guardSelf, ph.innerDetect, ph.frameW)
	ph.measure = false
	for _, inst := range r.insts {
		if s := monitor.State(inst.Name()); s != health.Healthy {
			ph.fail("cutin_drive: %s ended %s", inst.Name(), s)
		}
	}
	return ph, nil
}

// driveOnce runs one seeded RandomTraffic drive, then restores the vehicle
// to L0 and checks its dense weights against the store's checksum.
func driveOnce(r *rig, ph *cutinPhase, ms *measuredStack, v int, seed int64, round int) {
	driveSeed := seed*1_000_003 + int64(v)*10_007 + int64(round)
	sc := sim.RandomTraffic(cutinTicks, cutinDensity, driveSeed)
	res, err := perception.RunStack(sc, ms, perception.LoopConfig{FrameSize: frameSize, Spec: r.spec, Seed: driveSeed})
	if err != nil {
		ph.fail("cutin_drive: vehicle %d drive %d: %v", v, round, err)
		return
	}
	if ph.measure {
		ph.drives.Add(1)
		ph.violations.Add(int64(res.Violations))
	}
	if err := r.insts[v].ApplyLevel(0); err != nil {
		ph.fail("cutin_drive: vehicle %d restore after drive: %v", v, err)
		return
	}
	if err := r.views[v].VerifyDense(); err != nil {
		ph.fail("cutin_drive: vehicle %d after drive %d: %v", v, round, err)
	}
}
