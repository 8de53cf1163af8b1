package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/safety"
)

// warmup is run, untimed, before every measured phase: first passes pay
// one-off costs (buffer allocation, goroutine start-up) that steady-state
// figures must not include.
const warmup = 500 * time.Millisecond

// classMix draws n safety classes in the ingest overload tests' mix:
// Nominal/Elevated/Critical/Emergency 50/30/15/5.
func classMix(seed int64, n int) []safety.Criticality {
	rng := rand.New(rand.NewSource(seed))
	cs := make([]safety.Criticality, n)
	for i := range cs {
		switch p := rng.Intn(100); {
		case p < 50:
			cs[i] = safety.Nominal
		case p < 80:
			cs[i] = safety.Elevated
		case p < 95:
			cs[i] = safety.Critical
		default:
			cs[i] = safety.Emergency
		}
	}
	return cs
}

// layerBase returns every per-layer metric at zero. A workload overwrites
// the ones its layers do work for; the rest stay zero because that layer
// does nothing on that workload (no ingest on cutin_drive, no governor on
// ingest_mix, and so on).
func layerBase() map[string]float64 {
	m := map[string]float64{}
	for _, d := range layerDefs() {
		m[d.Name] = 0
	}
	return m
}

// addProbes copies the probe timings and the rig's memory into the
// per-layer metrics, and the cost model's figures into the details.
func addProbes(m map[string]float64, detail map[string]any, r *rig, pr *probeResult) {
	for k, v := range pr.fwdNS {
		m["nn.fwd_ns."+k] = v
	}
	for k := 1; k < numLevels; k++ {
		m[fmt.Sprintf("core.restore_us.L%d-L0", k)] = pr.restoreUS[k]
		m[fmt.Sprintf("core.verify_us.L%d", k)] = pr.verifyUS[k]
	}
	m["core.reload_ram_us"] = pr.reloadUS
	private, shared := r.memory()
	m["core.private_bytes"] = float64(private)
	m["core.shared_bytes"] = float64(shared)
	detail["model_vs_measured"] = pr.model
}

// addRuntime copies a phase's runtime figures into the per-layer metrics.
func addRuntime(m map[string]float64, rt runtimeDelta) {
	m["runtime.gc_cycles"] = float64(rt.GCCycles)
	m["runtime.gc_pause_p99_us"] = rt.GCPauseP99
	m["runtime.sched_latency_p99_us"] = rt.SchedLatP99
}

// addTiming sets p50/p99 metrics from a summary (an empty name skips
// one), failing the run when the sample cannot support a figure it needs.
func addTiming(o *outcome, m map[string]float64, p50, p99 string, s summary) {
	if (p50 != "" && !s.p50ok) || (p99 != "" && !s.ok) {
		o.fail("%s%s: %d samples (%d lost) cannot support it", p50, p99, s.N, s.Lost)
		return
	}
	if p50 != "" {
		m[p50] = s.P50
	}
	if p99 != "" {
		m[p99] = s.P99
	}
}

// addWindowed sets a metric to the lowQ quantile over the first n windows
// of the per-window p50 (p99 false) or p99 (p99 true), failing the run
// when the windows cannot support a figure. The windows' figures go in the
// details.
func addWindowed(o *outcome, m map[string]float64, name string, w *windowed, n int, p99 bool) {
	v, ok, ps := w.latency(n, p99)
	perWindow(o, name, ps)
	if !ok {
		o.fail("%s: the low quantile of %d windowed percentiles is not a finite, supported figure", name, n)
		return
	}
	m[name] = v
}

// addRate sets a metric to the 1-lowQ quantile over the first n windows of
// the recorded operations (hits false) or counted events (hits true) per
// second; the windows' rates go in the details.
func addRate(o *outcome, m map[string]float64, name string, w *windowed, n int, hits bool) {
	v, rates := w.rate(n, hits)
	perWindow(o, name, rates)
	m[name] = v
}

// perWindow keeps a metric's per-window figures in the details, +Inf (a
// window whose percentile fell on a lost frame) as -1.
func perWindow(o *outcome, name string, vs []float64) {
	pw, _ := o.detail["per_window"].(map[string][]float64)
	if pw == nil {
		pw = map[string][]float64{}
		o.detail["per_window"] = pw
	}
	out := make([]float64, len(vs))
	for i, v := range vs {
		if math.IsInf(v, 1) {
			v = -1
		}
		out[i] = v
	}
	pw[name] = out
}

// overhead is the traced phase's median frame latency over the untraced
// phase's, the cost of the tracing itself.
func overhead(untraced, traced summary) float64 {
	if untraced.P50 <= 0 {
		return 0
	}
	return traced.P50 / untraced.P50
}
