package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// TestInferMatchesForwardAtEveryLevel holds Sequential.Infer to Forward's
// bits on the two deployed networks at every prune level. Each level runs
// Infer on two different frames through one workspace, so an output buffer
// that kept a value from the previous pass fails the comparison.
func TestInferMatchesForwardAtEveryLevel(t *testing.T) {
	for _, build := range []func(int64) *nn.Sequential{NewObstacleNet, NewSignNet} {
		m := build(5)
		plans, err := (prune.MagnitudeGlobal{}).PlanNested(m, []float64{0.3, 0.5, 0.7, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		rm, err := core.Build(m, plans)
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(9)
		var ws nn.Workspace
		for level := 0; level < rm.NumLevels(); level++ {
			if err := rm.ApplyLevel(level); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				x := tensor.RandNormal(rng, float32(pass), 1, 1, 1, 16, 16)
				want := m.Forward(x, false)
				got := m.Infer(x, &ws)
				if !tensor.SameShape(got, want) {
					t.Fatalf("%s L%d: Infer shape %v, Forward %v", m.Name(), level, got.Shape(), want.Shape())
				}
				for i, w := range want.Data() {
					if math.Float32bits(got.Data()[i]) != math.Float32bits(w) {
						t.Fatalf("%s L%d pass %d: logit %d = %v, Forward %v", m.Name(), level, pass, i, got.Data()[i], w)
					}
				}
			}
		}
	}
}
