package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/perception"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// frameSize is the sensor patch side every pipeline is built for.
const frameSize = 16

// modelSeed fixes the trained model. The workload seed only shapes the
// inputs, so every run serves the same network.
const modelSeed = 1

// rig is a trained fleet: n copy-on-write instances over one sealed
// checkpoint store, named car0..car{n-1}.
type rig struct {
	zoo   *experiments.Zoo
	spec  platform.Spec
	fleet *fleet.Fleet
	insts []*fleet.Instance
	views []*core.ReversibleModel
}

// buildRig trains the obstacle model from scratch (a fresh zoo memoizes
// nothing), seals its checkpoint store and clones n instances, as the
// simdrive fleet and serve modes do.
func buildRig(n int) (*rig, error) {
	r := &rig{zoo: experiments.NewZoo(modelSeed), spec: platform.EmbeddedCPU(), fleet: fleet.New()}
	for i := 0; i < n; i++ {
		model, rm, err := r.zoo.ObstacleStackView(r.spec)
		if err != nil {
			return nil, err
		}
		pipe, err := perception.NewPipeline(model, frameSize, 0)
		if err != nil {
			return nil, err
		}
		inst, err := fleet.NewInstance(fmt.Sprintf("car%d", i), pipe, rm)
		if err != nil {
			return nil, err
		}
		if err := r.fleet.Add(inst); err != nil {
			return nil, err
		}
		r.insts = append(r.insts, inst)
		r.views = append(r.views, rm)
	}
	return r, nil
}

// setupRig builds the rig reps times, timing each build, and keeps the
// last; setup_s is the median of the timings. each, when non-nil, runs
// untimed on every build before the next one replaces it.
func setupRig(n, reps int, each func(*rig)) (*rig, []float64, error) {
	var r *rig
	var secs []float64
	for i := 0; i < reps; i++ {
		if r != nil {
			if err := r.fleet.Release(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = buildRig(n); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if each != nil {
			each(r)
		}
	}
	return r, secs, nil
}

// deepest returns the rig's deepest prune level.
func (r *rig) deepest() int { return r.views[0].NumLevels() - 1 }

// memory sums the instances' private copy-on-write bytes and counts each
// distinct shared store once, since it is resident once.
func (r *rig) memory() (private, shared int64) {
	seen := map[*core.CheckpointStore]bool{}
	for _, v := range r.views {
		private += v.PrivateBytes()
		if s := v.Store(); !seen[s] {
			seen[s] = true
			shared += s.SharedBytes()
		}
	}
	return private, shared
}

// framePool renders n sensor frames from the seed the way the simulator
// does: half with an obstacle, with the radius, noise and contrast ranges
// of the scenarios, so the classifier sees inputs like the ones it was
// trained on and its outputs span its range.
func framePool(seed int64, n int) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	frames := make([]*tensor.Tensor, n)
	for i := range frames {
		obstacle := rng.Float64() < 0.5
		radius := rng.Uniform(2, 4.5)
		noise := rng.Uniform(0.05, 0.3)
		contrast := rng.Uniform(0.5, 1)
		pix := dataset.RenderObstaclePatchContrast(obstacle, frameSize, radius, noise, contrast, rng)
		frames[i] = tensor.FromSlice(pix, 1, frameSize, frameSize)
	}
	return frames
}

// references runs every frame through a bare Pipeline.Detect on a fresh
// view at the given level: the expected output of every served frame.
func (r *rig) references(level int, frames []*tensor.Tensor) ([]perception.Detection, error) {
	model, rm, err := r.zoo.ObstacleStackView(r.spec)
	if err != nil {
		return nil, err
	}
	defer rm.Release()
	if err := rm.ApplyLevel(level); err != nil {
		return nil, err
	}
	pipe, err := perception.NewPipeline(model, frameSize, 0)
	if err != nil {
		return nil, err
	}
	refs := make([]perception.Detection, len(frames))
	for i, f := range frames {
		if refs[i], err = pipe.Detect(f); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// obstacleShare is the share of detections that declare an obstacle.
func obstacleShare(dets []perception.Detection) float64 {
	n := 0
	for _, d := range dets {
		if d.Obstacle {
			n++
		}
	}
	return float64(n) / float64(len(dets))
}

// sameDetection reports bit-identical detections.
func sameDetection(a, b perception.Detection) bool {
	return a.Obstacle == b.Obstacle &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		math.Float64bits(a.Uncertainty) == math.Float64bits(b.Uncertainty)
}

// The restore drill runs in slices of drillSlice, one after each set-up
// and one after the workload's steady phase, so that its samples spread
// over the whole run, split into windows of drillWindow that each hold a
// few hundred restores. Its windows are shorter than the frame windows: a
// restore cycle is a single thread's few hundred microseconds, so a window
// this short still supports its median. It detects drillPool distinct
// frames.
const (
	drillSlice  = 1500 * time.Millisecond
	drillWindow = 50 * time.Millisecond
	drillPool   = 256
)

// drill is the restore drill's record across its slices.
type drill struct {
	frames        []*tensor.Tensor
	restore, safe *windowed
	ops           int64
	slices        int
}

func newDrill(seed int64) *drill {
	return &drill{frames: framePool(seed, drillPool), restore: newWindowed(drillWindow), safe: newWindowed(drillWindow)}
}

// slice runs one slice of the drill on r's first instance, against L0
// references computed on r, and leaves the instance at the level it found
// it.
func (d *drill) slice(out *outcome, r *rig) {
	refsL0, err := r.references(0, d.frames)
	if err != nil {
		out.fail("restore drill: %v", err)
		out.failed++
		return
	}
	inst := r.insts[0]
	level := inst.Current()
	base := time.Duration(d.slices) * drillSlice
	d.slices++
	ops, err := restoreDrill(inst, r.deepest(), d.frames, refsL0, base, d.restore, d.safe)
	// Keep each window's figures and drop its samples, so that a workload's
	// live heap, measured after the first slice, holds none of them.
	d.restore.freeze()
	d.safe.freeze()
	d.ops += ops
	out.attempted += ops
	if err == nil {
		err = inst.ApplyLevel(level)
	}
	if err != nil {
		out.fail("%v", err)
		out.failed++
	}
}

// onSetup returns the set-up hook that runs a slice of the drill on every
// set-up of an untraced run; a traced run sets up once and has no drill.
func (d *drill) onSetup(out *outcome, cfg config) func(*rig) {
	if cfg.trace {
		return nil
	}
	return func(r *rig) { d.slice(out, r) }
}

// report sets restore_p50_us to the lowQ quantile over the drill's
// windows. The windows' restore p99 and safe-detect p99 go in the details
// only: on the reference host they spread too widely between runs to gate
// on.
func (d *drill) report(out *outcome, r *rig) {
	n := windowsIn(time.Duration(d.slices)*drillSlice, drillWindow)
	addWindowed(out, out.e2e, "restore_p50_us", d.restore, n, false)
	_, _, p99s := d.restore.latency(n, true)
	perWindow(out, "restore_p99_us", p99s)
	_, _, safe := d.safe.latency(n, true)
	perWindow(out, "safe_detect_p99_us", safe)
	out.detail["restore_drill"] = map[string]any{
		"restores": d.ops, "from_level": r.deepest(), "instance": r.insts[0].Name(),
	}
}

// restoreDrill measures the paper's headline path the same way on every
// workload, on one warm instance: take it to its deepest
// level (untimed), restore it to L0 through Instance.ApplyLevel (restore),
// and ask for one detection (safe detect: restore start to the detection's
// return), for drillSlice. The detection must equal the L0 reference.
// Samples are recorded at base plus their offset into the slice. It runs
// outside the workload's steady phase, so it never mixes with the
// workload's load.
func restoreDrill(inst *fleet.Instance, deep int, frames []*tensor.Tensor, refsL0 []perception.Detection,
	base time.Duration, restore, safe *windowed) (ops int64, err error) {
	start := time.Now()
	for k := 0; time.Since(start) < drillSlice; k++ {
		fi := k % len(frames)
		if err := inst.ApplyLevel(deep); err != nil {
			return ops, err
		}
		t0 := time.Now()
		if t0.Sub(start) >= drillSlice {
			break // the sample would fall in the next slice's first window
		}
		offset := base + t0.Sub(start)
		if err := inst.ApplyLevel(0); err != nil {
			return ops, err
		}
		t1 := time.Now()
		det, err := inst.Detect(frames[fi])
		t2 := time.Now()
		if err != nil {
			return ops, err
		}
		if !sameDetection(det, refsL0[fi]) {
			return ops, fmt.Errorf("restore drill: %s detection after restore differs from the L0 reference", inst.Name())
		}
		restore.add(offset, t1.Sub(t0))
		safe.add(offset, t2.Sub(t0))
		ops++
	}
	return ops, nil
}
