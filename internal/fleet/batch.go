package fleet

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/perception"
	"repro/internal/tensor"
)

// This file is the dispatcher's batch planner: instances cloned from the
// same checkpoint at the same prune level hold bit-identical weights, so
// their frames can run as ONE fused forward pass — one batched matmul per
// layer — instead of one full pass per instance. The planner sits between
// Submit and the workers:
//
//	Submit → jobs → batcher (group by key) → exec → workers → results
//
// The batcher drains whatever is already queued (up to maxBatch frames per
// planning window), snapshots each instance's batch key — (CheckpointID,
// level, frame geometry) — and groups frames whose keys agree. Groups of
// ≥ 2 execute fused; everything else (singletons, armed-injector
// instances, geometry mismatches) takes the unchanged per-instance path.
//
// Fused execution locks every member instance in name order (a total
// order, so concurrent groups cannot deadlock), revalidates each member's
// key under its lock — an instance retargeted mid-flight falls back to the
// per-instance path after the fused pass — runs the leader's pipeline over
// the stacked frames, and lets each member decide its own frame (its
// threshold and debounce state) from its probability row. Because the
// kernels underneath are bit-identical across batch sizes, a fused frame's
// Detection equals what the per-instance path would have produced; the
// differential harness in batch_diff_test.go holds the two paths to that.

// batchKey is the grouping identity of an instance at planning time:
// frames may fuse only when their instances agree on all three fields.
type batchKey struct {
	ckpt   uint64 // core.ReversibleModel.CheckpointID
	level  int    // active prune level
	pixels int    // pipeline frame geometry (FrameSize²)
}

// BatchObserver is the batch planner's telemetry seam;
// telemetry.Hooks satisfies it structurally.
type BatchObserver interface {
	// ObserveBatch reports one fused batched pass: the number of frames it
	// served and its wall-clock latency (lock wait included).
	ObserveBatch(size int, elapsed time.Duration)
	// ObserveBatchFallback reports frames that were grouped but then sent
	// down the per-instance path at execution time.
	ObserveBatchFallback(frames int)
}

// batchKeySnapshot reads the instance's grouping identity under its lock.
// An instance with an armed fault injector is never batchable: the
// injector's per-frame RNG draws are part of the instance's observable
// behavior, and only the per-instance path preserves their order.
func (i *Instance) batchKeySnapshot() (batchKey, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.inj != nil {
		return batchKey{}, false
	}
	s := i.pipe.FrameSize()
	return batchKey{ckpt: i.rm.CheckpointID(), level: i.rm.Current(), pixels: s * s}, true
}

// batchKeyLocked re-reads the grouping identity with i.mu already held —
// the execution-time revalidation against the planning-time snapshot.
func (i *Instance) batchKeyLocked() (batchKey, bool) {
	if i.inj != nil {
		return batchKey{}, false
	}
	s := i.pipe.FrameSize()
	return batchKey{ckpt: i.rm.CheckpointID(), level: i.rm.Current(), pixels: s * s}, true
}

// batcher is the planning stage: it forms execution units from the job
// stream and forwards them on d.exec. It exits (closing d.exec, which
// stops the workers) when Close closes d.jobs.
func (d *Dispatcher) batcher() {
	defer d.wg.Done()
	defer close(d.exec)
	window := make([]job, 0, d.maxBatch)
	for first := range d.jobs {
		window = append(window[:0], first)
		// Greedy non-blocking drain: whatever is already queued rides in
		// this planning window. Waiting for more would add latency to the
		// frame in hand; a busy fleet fills windows on its own.
	drain:
		for len(window) < d.maxBatch {
			select {
			case j, ok := <-d.jobs:
				if !ok {
					break drain
				}
				window = append(window, j)
			default:
				break drain
			}
		}
		d.plan(window)
	}
}

// plan groups one window's jobs by batch key and emits execution units in
// first-seen order. An instance's key is snapshotted once per window, so
// all of its frames in the window land in the same unit and stay in
// submission order relative to each other.
func (d *Dispatcher) plan(window []job) {
	type snapshot struct {
		key batchKey
		ok  bool
	}
	snaps := make(map[*Instance]snapshot, len(window))
	groups := make(map[batchKey][]job)
	var order []batchKey
	var singles []job
	for _, j := range window {
		s, seen := snaps[j.inst]
		if !seen {
			s.key, s.ok = j.inst.batchKeySnapshot()
			snaps[j.inst] = s
		}
		if !s.ok || j.frame == nil || j.frame.Len() != s.key.pixels {
			singles = append(singles, j)
			continue
		}
		if len(groups[s.key]) == 0 {
			order = append(order, s.key)
		}
		groups[s.key] = append(groups[s.key], j)
	}
	for _, k := range order {
		g := groups[k]
		if len(g) == 1 {
			singles = append(singles, g[0])
			continue
		}
		d.exec <- g
	}
	for _, j := range singles {
		d.exec <- []job{j}
	}
}

// processBatch executes one fused group: health gate, lock members in name
// order, revalidate, one batched forward through the leader's pipeline,
// per-member decides, then results. Members that fail revalidation — and
// the whole group if the fused pass itself fails — fall back to the
// per-instance path after every lock is released.
func (d *Dispatcher) processBatch(g []job) {
	start := now()
	// Same-instance frames must advance that instance's debounce state in
	// submission order, whatever order the planner appended them in.
	sort.SliceStable(g, func(a, b int) bool { return g[a].seq < g[b].seq })

	live := g[:0]
	for _, j := range g {
		if d.monitor != nil && !d.monitor.Gate(j.name) {
			d.results <- Result{Model: j.name, Seq: j.seq, Tag: j.tag, Err: ErrQuarantined, Health: d.monitor.State(j.name)}
			continue
		}
		live = append(live, j)
	}
	if len(live) < 2 {
		for _, j := range live {
			d.results <- d.process(j)
		}
		if d.batchObs != nil && len(live) > 0 {
			d.batchObs.ObserveBatchFallback(len(live))
		}
		return
	}

	// Lock every distinct member in name order — a total order shared by
	// all groups, so two fused passes over overlapping instances cannot
	// deadlock. Instance names are unique within a fleet.
	distinct := make(map[string]*Instance, len(live))
	for _, j := range live {
		distinct[j.name] = j.inst
	}
	names := make([]string, 0, len(distinct))
	for n := range distinct {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		distinct[n].mu.Lock()
	}

	key := snapshotKeyOf(live[0].inst)
	var fused, stale []job
	for _, j := range live {
		if k, ok := j.inst.batchKeyLocked(); ok && k == key && j.frame.Len() == k.pixels {
			fused = append(fused, j)
		} else {
			stale = append(stale, j)
		}
	}

	dets := make([]perception.Detection, len(fused))
	var fusedErr error
	if len(fused) >= 2 {
		fusedErr = runFusedLocked(fused, dets)
	}

	for _, n := range names {
		distinct[n].mu.Unlock()
	}
	elapsed := now().Sub(start)

	if len(fused) < 2 || fusedErr != nil {
		// Nothing (or nothing trustworthy) came out of the fused pass;
		// every live frame re-runs per-instance.
		for _, j := range fused {
			d.results <- d.process(j)
		}
		for _, j := range stale {
			d.results <- d.process(j)
		}
		if d.batchObs != nil {
			d.batchObs.ObserveBatchFallback(len(fused) + len(stale))
		}
		return
	}

	for idx, j := range fused {
		det := dets[idx]
		if p := j.inst.obs.Load(); p != nil {
			(*p).ObserveFrame(elapsed)
		}
		res := Result{Model: j.name, Seq: j.seq, Tag: j.tag, Detection: det, Batched: true, BatchSize: len(fused)}
		if d.monitor != nil {
			res.Health, _ = d.monitor.Observe(j.name, det.Confidence, det.Uncertainty, elapsed, nil)
		}
		d.results <- res
	}
	for _, j := range stale {
		d.results <- d.process(j)
	}
	if d.batchObs != nil {
		d.batchObs.ObserveBatch(len(fused), elapsed)
		if len(stale) > 0 {
			d.batchObs.ObserveBatchFallback(len(stale))
		}
	}
}

// snapshotKeyOf reads an instance's key with its lock already held by the
// caller (processBatch holds every member lock when it revalidates).
func snapshotKeyOf(i *Instance) batchKey {
	k, _ := i.batchKeyLocked()
	return k
}

// runFusedLocked runs the single fused forward pass for a revalidated
// group — every member lock held — and fills dets[i] with member i's own
// decision over its probability row. All members share a checkpoint and
// level, so the leader's weights are bit-identical to every member's; the
// per-member DecideRow applies each member's own threshold and advances
// its own debounce history, exactly as a sequence of per-instance Detect
// calls would. A panic anywhere in the pass is recovered into an error so
// the caller can release locks and fall back.
//
// The leader is the member with the smallest name, not the smallest
// sequence number: names are stable across planning windows, so the same
// instance's weights serve every fused pass of a checkpoint group and stay
// cache-hot, instead of each window warming a different clone's copies.
func runFusedLocked(fused []job, dets []perception.Detection) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fleet: fused batch pass: recovered panic: %v", r)
		}
	}()
	leader, leaderName := fused[0].inst, fused[0].name
	for _, j := range fused[1:] {
		if j.name < leaderName {
			leader, leaderName = j.inst, j.name
		}
	}
	frames := make([]*tensor.Tensor, len(fused))
	for i, j := range fused {
		frames[i] = j.frame
	}
	probs, perr := leader.pipe.ProbsBatch(frames)
	if perr != nil {
		return perr
	}
	for i, j := range fused {
		dets[i] = j.inst.pipe.DecideRow(probs, i)
	}
	return nil
}
