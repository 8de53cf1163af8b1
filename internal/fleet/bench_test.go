package fleet

import (
	"testing"

	"repro/internal/perception"
)

// buildBareAndInstance returns a bare pipeline and an Instance wrapping an
// identical model, for overhead-delta comparisons.
func buildBareAndInstance(t testing.TB) (*perception.Pipeline, *Instance) {
	t.Helper()
	m := testModel(11)
	pipe, err := perception.NewPipeline(m, testFrameSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := newTestInstance(t, "car0", 11)
	return pipe, inst
}

// TestInstanceDetectZeroAllocOverhead pins the single-frame hot path at
// zero allocations, at L0 and at the deepest level: a warmed
// Pipeline.Detect runs through the pipeline's own workspace, and the
// Instance wrapper with no observer installed (atomic observer load +
// per-instance lock) adds nothing over it.
func TestInstanceDetectZeroAllocOverhead(t *testing.T) {
	inst := newTestInstance(t, "car0", 11)
	frame := testFrame()
	for _, level := range []int{0, len(inst.rm.Levels()) - 1} {
		if err := inst.ApplyLevel(level); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Detect(frame); err != nil { // warm: sizes the workspace
			t.Fatal(err)
		}
		bare := testing.AllocsPerRun(200, func() { inst.pipe.Detect(frame) })
		wrapped := testing.AllocsPerRun(200, func() { inst.Detect(frame) })
		if bare != 0 || wrapped != 0 {
			t.Fatalf("L%d: Pipeline.Detect allocates %.1f/op, Instance.Detect %.1f/op; both must be 0", level, bare, wrapped)
		}
	}
}

func BenchmarkBarePipelineDetect(b *testing.B) {
	pipe, _ := buildBareAndInstance(b)
	frame := testFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Detect(frame)
	}
}

func BenchmarkInstanceDetectNoObserver(b *testing.B) {
	_, inst := buildBareAndInstance(b)
	frame := testFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Detect(frame)
	}
}

func BenchmarkRebalance(b *testing.B) {
	f := New()
	for _, name := range []string{"car0", "car1", "car2", "car3"} {
		if err := f.Add(newTestInstance(b, name, 1)); err != nil {
			b.Fatal(err)
		}
	}
	bg, err := NewBudgetGovernor(f, Budget{EnergyMJ: 26})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bg.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
}
