package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/experiments"
	"repro/internal/tensor"
)

// probeReps is how many times each probe repeats one measured call; the
// reported figure is the median.
const probeReps = 301

// layerNames are the obstacle network's layers in forward order.
var layerNames = []string{"conv1", "relu1", "pool1", "flat", "fc1", "relu2", "fc2"}

// numLevels is the size of the designed level library (L0..L4).
const numLevels = 5

// probeResult holds the per-layer, per-level and per-level-pair timings
// taken on a private view of the workload's store, plus the analytic cost
// model's latency for each level beside the measured forward sum.
type probeResult struct {
	fwdNS     map[string]float64 // "<layer>.L<k>" → median ns
	restoreUS []float64          // index k: restore L<k>→L0, median µs (k ≥ 1)
	verifyUS  []float64          // index k: Store().VerifyLevel(k), median µs (k ≥ 1)
	reloadUS  float64            // DecodeWeights of the dense checkpoint, median µs
	model     map[string]float64 // model.* labels: never metrics
}

// runProbes times each layer's Forward in turn at every level, restores
// from every level to L0, per-level store verification and a checkpoint
// reload from RAM. The composed per-layer forward must equal
// Sequential.Forward bit for bit.
func runProbes(r *rig, frame *tensor.Tensor) (*probeResult, error) {
	model, rm, err := r.zoo.ObstacleStackView(r.spec)
	if err != nil {
		return nil, err
	}
	defer rm.Release()
	layers := model.Layers()
	if len(layers) != len(layerNames) || rm.NumLevels() != numLevels {
		return nil, fmt.Errorf("probe: model has %d layers and %d levels, benchmark names %d and %d",
			len(layers), rm.NumLevels(), len(layerNames), numLevels)
	}
	for i, l := range layers {
		if l.Name() != layerNames[i] {
			return nil, fmt.Errorf("probe: layer %d is %q, want %q", i, l.Name(), layerNames[i])
		}
	}
	pr := &probeResult{
		fwdNS:     map[string]float64{},
		restoreUS: make([]float64, numLevels),
		verifyUS:  make([]float64, numLevels),
		model:     map[string]float64{},
	}
	x := tensor.New(1, 1, frameSize, frameSize)
	copy(x.Data(), frame.Data())

	for k := 0; k < numLevels; k++ {
		if err := rm.ApplyLevel(k); err != nil {
			return nil, err
		}
		want := append([]float32(nil), model.Forward(x, false).Data()...)
		times := make([][]float64, len(layers))
		for rep := 0; rep < probeReps; rep++ {
			y := x
			for li, l := range layers {
				t0 := time.Now()
				y = l.Forward(y, false)
				times[li] = append(times[li], float64(time.Since(t0).Nanoseconds()))
			}
			if rep == 0 || rep == probeReps-1 {
				if err := sameFloats(y.Data(), want); err != nil {
					return nil, fmt.Errorf("probe: composed per-layer forward at L%d differs from Sequential.Forward: %w", k, err)
				}
			}
		}
		sum := 0.0
		for li, name := range layerNames {
			m := median(times[li])
			pr.fwdNS[fmt.Sprintf("%s.L%d", name, k)] = m
			sum += m
		}
		pr.model[fmt.Sprintf("model.latency_ms.L%d", k)] = rm.Level(k).LatencyMS
		pr.model[fmt.Sprintf("measured.fwd_sum_ms.L%d", k)] = sum / 1e6
	}
	if pr.model["model.latency_ms.L0"] > 0 {
		last := numLevels - 1
		pr.model[fmt.Sprintf("model.latency_ratio.L%d_over_L0", last)] = pr.model[fmt.Sprintf("model.latency_ms.L%d", last)] / pr.model["model.latency_ms.L0"]
		pr.model[fmt.Sprintf("measured.fwd_ratio.L%d_over_L0", last)] = pr.model[fmt.Sprintf("measured.fwd_sum_ms.L%d", last)] / pr.model["measured.fwd_sum_ms.L0"]
	}

	for k := 1; k < numLevels; k++ {
		var restore, verify []float64
		for rep := 0; rep < probeReps; rep++ {
			if err := rm.ApplyLevel(k); err != nil {
				return nil, err
			}
			t0 := time.Now()
			err := rm.Store().VerifyLevel(k)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if err := rm.ApplyLevel(0); err != nil {
				return nil, err
			}
			t2 := time.Now()
			verify = append(verify, float64(t1.Sub(t0))/1e3)
			restore = append(restore, float64(t2.Sub(t1))/1e3)
		}
		pr.restoreUS[k] = median(restore)
		pr.verifyUS[k] = median(verify)
	}
	if err := rm.VerifyDense(); err != nil {
		return nil, err
	}

	enc, err := model.EncodeWeights()
	if err != nil {
		return nil, err
	}
	scratch := experiments.NewObstacleNet(modelSeed + 1)
	var reload []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		if err := scratch.DecodeWeights(enc); err != nil {
			return nil, err
		}
		reload = append(reload, float64(time.Since(t0))/1e3)
	}
	pr.reloadUS = median(reload)
	return pr, nil
}

// sameFloats reports the first bit-level difference between two vectors.
func sameFloats(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("element %d: %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
