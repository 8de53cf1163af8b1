package revprune

// Benchmark harness: one benchmark (or benchmark group) per reconstructed
// table and figure, measuring the primitive that experiment's wall-clock
// rows derive from. `go test -bench=. -benchmem` regenerates every number;
// the experiment IDs match DESIGN.md and EXPERIMENTS.md.

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/governor"
	"repro/internal/nn"
	"repro/internal/perception"
	"repro/internal/platform"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/train"
)

var (
	benchOnce sync.Once
	benchZoo  *experiments.Zoo
)

func zoo(b *testing.B) *experiments.Zoo { return zooTB(b) }

func zooTB(b testing.TB) *experiments.Zoo {
	b.Helper()
	benchOnce.Do(func() {
		benchZoo = experiments.NewZoo(1)
		benchZoo.SignNet()     // train once, outside timed regions
		benchZoo.ObstacleNet() //
	})
	return benchZoo
}

func benchStack(b *testing.B) (*nn.Sequential, *core.ReversibleModel) {
	b.Helper()
	model, rm, err := zoo(b).ObstacleStack(nil, platform.EmbeddedCPU())
	if err != nil {
		b.Fatal(err)
	}
	return model, rm
}

// --- F1: accuracy vs sparsity — the unit is planning one nested family. ---

func BenchmarkF1_PlanNestedMagnitude(b *testing.B) {
	m := zoo(b).CloneSign()
	sweep := []float64{0.2, 0.4, 0.6, 0.8, 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (prune.MagnitudeGlobal{}).PlanNested(m, sweep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF1_PlanNestedStructured(b *testing.B) {
	m := zoo(b).CloneSign()
	sweep := []float64{0.2, 0.4, 0.6, 0.8, 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (prune.StructuredChannel{}).PlanNested(m, sweep); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2: latency vs sparsity — measured single-frame inference. ---

func benchInference(b *testing.B, model *nn.Sequential) {
	b.Helper()
	input := tensor.RandNormal(tensor.NewRNG(2), 0, 1, 1, 1, 16, 16)
	model.Forward(input, false) // warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Forward(input, false)
	}
}

func BenchmarkF2_InferenceDense(b *testing.B) {
	benchInference(b, zoo(b).CloneSign())
}

func BenchmarkF2_InferenceUnstructured90(b *testing.B) {
	m := zoo(b).CloneSign()
	plan, err := prune.PlanSingle(prune.MagnitudeGlobal{}, m, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	plan.Apply(m)
	benchInference(b, m)
}

func BenchmarkF2_InferenceCompacted90(b *testing.B) {
	m := zoo(b).CloneSign()
	plan, err := prune.PlanSingle(prune.StructuredChannel{}, m, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	plan.Apply(m)
	compacted, err := prune.Compact(m)
	if err != nil {
		b.Fatal(err)
	}
	benchInference(b, compacted)
}

// --- F3: recovery latency — the headline comparison. ---

// BenchmarkF3_ReversibleRestore times the deepest-level → L0 restore
// alone; the deepen that sets each iteration up runs with the timer
// stopped, so the figure compares like for like with a checkpoint reload.
func BenchmarkF3_ReversibleRestore(b *testing.B) {
	_, rm := benchStack(b)
	deepest := rm.NumLevels() - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := rm.ApplyLevel(deepest); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := rm.RestoreFull(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF3_CheckpointReloadRAM(b *testing.B) {
	model, _ := benchStack(b)
	checkpoint, err := model.EncodeWeights()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.DecodeWeights(checkpoint); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF3_CheckpointReloadDisk(b *testing.B) {
	model, _ := benchStack(b)
	checkpoint, err := model.EncodeWeights()
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.CreateTemp(b.TempDir(), "ckpt-*.bin")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Write(checkpoint); err != nil {
		b.Fatal(err)
	}
	path := f.Name()
	f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := model.DecodeWeights(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF3_FineTuneRecoveryEpoch(b *testing.B) {
	z := zoo(b)
	trainSet := z.ObstacleTrain()
	m := z.CloneObstacle()
	plan, err := prune.PlanSingle(prune.MagnitudeGlobal{}, m, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	plan.Apply(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train.Fit(m, trainSet.X, trainSet.Labels, train.Config{
			Epochs:    1,
			BatchSize: 32,
			Optimizer: train.NewAdam(0.001, 0),
			Seed:      int64(i),
		})
	}
}

// --- F4: adaptation timeline — one full MAPE-K control tick. ---

func BenchmarkF4_GovernorTick(b *testing.B) {
	_, rm := benchStack(b)
	gov, err := governor.New(rm, &governor.Hysteresis{DwellTicks: 20}, safety.DefaultContract())
	if err != nil {
		b.Fatal(err)
	}
	assessor := safety.DefaultAssessor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate calm and critical ticks so transitions happen.
		score := 0.1
		if i%100 > 90 {
			score = 0.9
		}
		a := assessor.Assess(5*(1-score), 0.2, 0.2)
		if _, err := gov.Tick(i, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF4_PerceptionDetect(b *testing.B) {
	model, _ := benchStack(b)
	pipe, err := perception.NewPipeline(model, 16, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	frame := tensor.FromSlice(make([]float32, 256), 1, 16, 16)
	for i := range frame.Data() {
		frame.Data()[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Detect(frame)
	}
}

// --- F5: policy ablation — a single policy decision. ---

func benchPolicy(b *testing.B, p governor.Policy) {
	b.Helper()
	_, rm := benchStack(b)
	in := governor.Inputs{
		Assessment: safety.DefaultAssessor().Assess(2.0, 0.3, 0.3),
		Levels:     rm.Levels(),
		Contract:   safety.DefaultContract(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Tick = i
		p.Decide(in)
	}
}

func BenchmarkF5_PolicyThreshold(b *testing.B)  { benchPolicy(b, governor.Threshold{}) }
func BenchmarkF5_PolicyHysteresis(b *testing.B) { benchPolicy(b, &governor.Hysteresis{DwellTicks: 20}) }
func BenchmarkF5_PolicyPredictive(b *testing.B) { benchPolicy(b, &governor.Predictive{}) }

// --- T1: memory overhead — building the recovery store. ---

func BenchmarkT1_BuildRecoveryStore(b *testing.B) {
	z := zoo(b)
	levels := []float64{0.3, 0.43, 0.57, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := z.CloneObstacle()
		plans, err := (prune.MagnitudeGlobal{}).PlanNested(m, levels)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := core.Build(m, plans); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T2/T3: safety & energy — one closed-loop scenario tick. ---

func BenchmarkT2_ClosedLoopScenario(b *testing.B) {
	z := zoo(b)
	spec := platform.EmbeddedCPU()
	sc := sim.CutIn()
	sc.Ticks = 200 // one bench iteration = 200 control ticks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		model, rm, err := z.ObstacleStack(nil, spec)
		if err != nil {
			b.Fatal(err)
		}
		gov, err := governor.New(rm, &governor.Hysteresis{DwellTicks: 20}, safety.DefaultContract())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := perception.RunScenario(sc, model, rm, perception.LoopConfig{
			FrameSize: 16, Spec: spec, Governor: gov, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T3 companion: the platform cost model itself. ---

func BenchmarkT3_PlatformEstimate(b *testing.B) {
	model, _ := benchStack(b)
	spec := platform.EmbeddedCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Estimate(model)
	}
}

// --- T4: level calibration — one full-test-set evaluation pass. ---

func BenchmarkT4_CalibrationEval(b *testing.B) {
	z := zoo(b)
	model := z.CloneObstacle()
	eval := z.ObstacleEval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(model)
	}
}

// --- T5: transition matrix — single-step and full-depth transitions. ---

func BenchmarkT5_TransitionOneStep(b *testing.B) {
	_, rm := benchStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rm.ApplyLevel(1); err != nil {
			b.Fatal(err)
		}
		if err := rm.ApplyLevel(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT5_TransitionFullDepth(b *testing.B) {
	_, rm := benchStack(b)
	deepest := rm.NumLevels() - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rm.ApplyLevel(deepest); err != nil {
			b.Fatal(err)
		}
		if err := rm.ApplyLevel(0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A-series ablation benches. ---

func BenchmarkA1_QuantizeApply8bit(b *testing.B) {
	m := zoo(b).CloneObstacle()
	q, err := quant.BuildQuantizer(m, []int{8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.ApplyLevel(1); err != nil {
			b.Fatal(err)
		}
		if err := q.Restore(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSparseMatmul(b *testing.B, sparsity float64) {
	b.Helper()
	rng := tensor.NewRNG(4)
	const n = 256
	a := tensor.RandNormal(rng, 0, 1, n, n)
	perm := rng.Perm(n * n)
	for _, idx := range perm[:int(sparsity*float64(n*n))] {
		a.Data()[idx] = 0
	}
	bb := tensor.RandNormal(rng, 0, 1, n, n)
	out := tensor.New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, a, bb)
	}
}

func BenchmarkA3_MatmulDense(b *testing.B)    { benchSparseMatmul(b, 0) }
func BenchmarkA3_MatmulSparse90(b *testing.B) { benchSparseMatmul(b, 0.9) }

func BenchmarkA5_HalfStoreRestore(b *testing.B) {
	z := zoo(b)
	levels, err := z.DesignedLevels()
	if err != nil {
		b.Fatal(err)
	}
	m := z.CloneObstacle()
	plans, err := (prune.MagnitudeGlobal{}).PlanNested(m, levels)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := core.Build(m, plans, core.WithHalfPrecisionStore())
	if err != nil {
		b.Fatal(err)
	}
	deepest := rm.NumLevels() - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rm.ApplyLevel(deepest); err != nil {
			b.Fatal(err)
		}
		if err := rm.RestoreFull(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fleet throughput: fused batched dispatch vs the per-instance path. ---

// benchFleet builds a fleet of size clones of the obstacle stack — every
// instance a copy-on-write view over the zoo's one shared checkpoint
// store, so the whole fleet shares a CheckpointID and the batch planner
// can fuse across it without re-fingerprinting.
func benchFleet(b testing.TB, size int) (*fleet.Fleet, []string, []*tensor.Tensor) {
	b.Helper()
	z := zooTB(b)
	f := fleet.New()
	b.Cleanup(func() {
		if err := f.Release(); err != nil {
			b.Error(err)
		}
	})
	names := make([]string, size)
	for i := range names {
		model, rm, err := z.ObstacleStackView(platform.EmbeddedCPU())
		if err != nil {
			b.Fatal(err)
		}
		pipe, err := perception.NewPipeline(model, 16, 0)
		if err != nil {
			b.Fatal(err)
		}
		names[i] = fmt.Sprintf("car%02d", i)
		inst, err := fleet.NewInstance(names[i], pipe, rm)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Add(inst); err != nil {
			b.Fatal(err)
		}
	}
	rng := tensor.NewRNG(9)
	frames := make([]*tensor.Tensor, size)
	for i := range frames {
		frames[i] = tensor.RandNormal(rng, 0, 1, 1, 16, 16)
	}
	return f, names, frames
}

// benchRounds is how many frames per instance one throughput iteration
// pushes. Throughput is a sustained-rate quantity: several rounds keep the
// batched dispatcher's queue deep enough that goroutine hand-off latency
// amortizes across fused passes instead of being charged to every frame.
const benchRounds = 8

// BenchmarkFleetThroughput is the scripts/bench_fleet.sh workload: one
// iteration classifies benchRounds frames per instance, either through the
// batched dispatcher (fused groups, one matmul per layer) or the plain
// per-instance path. The ns/frame metric is what BENCH_fleet.json records
// and what the verify.sh non-regression gate compares — batched must not
// be slower at fleet sizes ≥ 8.
func BenchmarkFleetThroughput(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sequential-%d", size), func(b *testing.B) {
			f, names, frames := benchFleet(b, size)
			insts := make([]*fleet.Instance, size)
			for i, n := range names {
				insts[i], _ = f.Get(n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < benchRounds; r++ {
					for j, inst := range insts {
						if _, err := inst.Detect(frames[j]); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size*benchRounds), "ns/frame")
		})
		b.Run(fmt.Sprintf("batched-%d", size), func(b *testing.B) {
			f, names, frames := benchFleet(b, size)
			// Fusion has a cache sweet spot: past ~16 frames the stacked
			// activations outgrow L2 and the wide pass slows down, so the
			// planner is capped there and large fleets run as several fused
			// groups overlapping across the workers. Below the cap a window
			// may fuse several queued rounds of the same instances (the
			// planner dedupes locks and keeps per-instance frame order), so
			// small fleets still fill 16-wide passes.
			maxBatch := 2 * size
			if maxBatch < 2 {
				maxBatch = 2
			}
			if maxBatch > 16 {
				maxBatch = 16
			}
			d, err := fleet.NewDispatcher(f, 2, benchRounds*size, fleet.WithBatching(maxBatch))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < benchRounds; r++ {
					for j, name := range names {
						if _, err := d.Submit(name, frames[j]); err != nil {
							b.Fatal(err)
						}
					}
				}
				for j := 0; j < benchRounds*size; j++ {
					if res := <-d.Results(); res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size*benchRounds), "ns/frame")
		})
	}
}

// --- Bundle serialization (deployment path). ---

func BenchmarkBundleSaveLoad(b *testing.B) {
	z := zoo(b)
	_, rm := benchStack(b)
	var buf bytes.Buffer
	if err := rm.Save(&buf); err != nil {
		b.Fatal(err)
	}
	bundle := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := experiments.NewObstacleNet(1)
		if _, err := core.Load(m, bytes.NewReader(bundle)); err != nil {
			b.Fatal(err)
		}
	}
	_ = z
}
