package experiments

import (
	"fmt"
	"testing"

	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// BenchmarkLayerInfer times each layer's inference pass on the trained
// obstacle net at L0 and at the deepest level, one sub-benchmark per
// level/layer pair. Every layer runs alone as a one-layer Sequential
// through its own workspace, on the inputs the full network feeds it, so
// the figure is the layer's steady-state, allocation-free kernel cost.
// The inputs rotate over several test frames: a kernel whose branches
// depend on the data (a max-pool comparison, say) would look faster on
// one frame repeated, which the branch predictor learns.
//
//	go test ./internal/experiments -run '^$' -bench LayerInfer -benchmem
func BenchmarkLayerInfer(b *testing.B) {
	const frames = 16
	z := NewZoo(1)
	m, rm, err := z.ObstacleStack(nil, platform.EmbeddedCPU())
	if err != nil {
		b.Fatal(err)
	}
	_, test := z.ObstacleNet()
	for _, level := range []int{0, rm.NumLevels() - 1} {
		if err := rm.ApplyLevel(level); err != nil {
			b.Fatal(err)
		}
		xs := make([]*tensor.Tensor, frames)
		for i := range xs {
			sample, _ := test.Sample(i)
			xs[i] = sample.Reshape(append([]int{1}, sample.Shape()...)...)
		}
		for _, l := range m.Layers() {
			single := nn.NewSequential(l.Name(), l)
			b.Run(fmt.Sprintf("L%d/%s", level, l.Name()), func(b *testing.B) {
				// One workspace per frame: a workspace re-makes a reshaped
				// view (Flatten's output) when its input tensor changes,
				// which never happens inside a real pass.
				wss := make([]nn.Workspace, frames)
				for i, x := range xs {
					single.Infer(x, &wss[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					single.Infer(xs[i%frames], &wss[i%frames])
				}
			})
			for i, x := range xs {
				xs[i] = l.Forward(x, false)
			}
		}
	}
}
