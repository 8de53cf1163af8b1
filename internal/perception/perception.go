// Package perception implements the camera perception pipeline and the
// closed control loop that couples the scenario simulator, the safety
// monitor, the runtime governor, and the reversible model. It is the
// integration layer every end-to-end experiment runs through.
//
// For multi-goroutine deployments, Concurrent serializes detection and
// level transitions behind one mutex so a frame never observes a
// half-applied level. Per-frame detection latency (including that lock
// wait) is observable through the FrameObserver seam, which
// telemetry.Hooks satisfies; a nil observer is free.
package perception

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Detection is one frame's perception output.
type Detection struct {
	// Obstacle reports whether the pipeline declares an obstacle present.
	Obstacle bool
	// Confidence is p(obstacle) from the softmax head.
	Confidence float64
	// Uncertainty is the normalized softmax entropy in [0,1].
	Uncertainty float64
}

// Pipeline wraps a binary obstacle classifier (input [1, S, S], two output
// logits: clear/obstacle) for frame-by-frame use.
type Pipeline struct {
	model     *nn.Sequential
	size      int
	threshold float64
	batch     *tensor.Tensor // reusable [1,1,S,S] input
	batchBuf  *tensor.Tensor // reusable [N,1,S,S] input for batched passes
	ws        nn.Workspace   // Detect's activation buffers, sized for batch 1
	probs     *tensor.Tensor // Detect's softmax output, [1, classes]

	// Debouncing (optional): declare an obstacle only when at least
	// debounceK of the last debounceN raw frame decisions were positive.
	debounceK, debounceN int
	history              []bool
	histPos              int
	histCount            int
}

// SetDebounce enables k-of-n vote debouncing on the obstacle decision:
// Detect reports an obstacle only when at least k of the last n raw frame
// classifications were positive. Debouncing suppresses single-frame false
// alarms (spurious emergency braking) at the cost of (k−1) control ticks
// of detection latency. k must be in [1, n].
func (p *Pipeline) SetDebounce(k, n int) error {
	if n <= 0 || k <= 0 || k > n {
		return fmt.Errorf("perception: debounce k=%d n=%d invalid", k, n)
	}
	p.debounceK, p.debounceN = k, n
	p.history = make([]bool, n)
	p.histPos, p.histCount = 0, 0
	return nil
}

// NewPipeline constructs a pipeline around the classifier. threshold is the
// detection probability cutoff; 0 defaults to 0.5.
func NewPipeline(model *nn.Sequential, frameSize int, threshold float64) (*Pipeline, error) {
	if model == nil {
		return nil, fmt.Errorf("perception: nil model")
	}
	if frameSize <= 0 {
		return nil, fmt.Errorf("perception: frame size %d", frameSize)
	}
	if threshold == 0 { //lint:allow(floateq) zero-value config sentinel selects the default
		threshold = 0.5
	}
	if threshold < 0 || threshold >= 1 {
		return nil, fmt.Errorf("perception: threshold %v out of (0,1)", threshold)
	}
	return &Pipeline{
		model:     model,
		size:      frameSize,
		threshold: threshold,
		batch:     tensor.New(1, 1, frameSize, frameSize),
	}, nil
}

// FrameSize returns the sensor patch side length the pipeline was built
// for; Detect only accepts frames with exactly FrameSize² pixels.
func (p *Pipeline) FrameSize() int { return p.size }

// Detect classifies one [1, S, S] frame. A frame whose pixel count does
// not match FrameSize² is rejected with an error — a truncated or garbled
// sensor read must degrade, not crash the control loop. After the first
// frame Detect allocates nothing: the forward pass runs through the
// pipeline's own workspace and probability buffer.
func (p *Pipeline) Detect(frame *tensor.Tensor) (Detection, error) {
	if frame == nil {
		return Detection{}, fmt.Errorf("perception: nil frame")
	}
	if frame.Len() != p.size*p.size {
		return Detection{}, fmt.Errorf("perception: frame with %d pixels, want %d", frame.Len(), p.size*p.size)
	}
	copy(p.batch.Data(), frame.Data())
	logits := p.model.Infer(p.batch, &p.ws)
	if p.probs == nil || !tensor.SameShape(p.probs, logits) {
		p.probs = tensor.New(logits.Shape()...)
	}
	tensor.SoftmaxRowsInto(p.probs, logits)
	return p.DecideRow(p.probs, 0), nil
}

// ProbsBatch stacks the frames into one [N,1,S,S] batch, runs a single
// fused forward pass, and returns the [N,2] softmax probability matrix —
// row i belongs to frames[i]. It is the model half of batched detection:
// it advances no debounce state, so probability rows can be handed to
// *other* pipelines' DecideRow (the fleet batch planner runs one
// instance's model for a whole group and lets each member decide its own
// frame). Frames are validated like Detect validates; the stack buffer is
// cached per batch size and the activations come from a pooled workspace.
// The returned matrix is freshly allocated and belongs to the caller.
// Callers serialize ProbsBatch against anything else touching this
// pipeline's model.
func (p *Pipeline) ProbsBatch(frames []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("perception: empty batch")
	}
	px := p.size * p.size
	for i, f := range frames {
		if f == nil {
			return nil, fmt.Errorf("perception: batch frame %d is nil", i)
		}
		if f.Len() != px {
			return nil, fmt.Errorf("perception: batch frame %d with %d pixels, want %d", i, f.Len(), px)
		}
	}
	buf := p.batch
	if n := len(frames); n > 1 {
		if p.batchBuf == nil || p.batchBuf.Dim(0) != n {
			p.batchBuf = tensor.New(n, 1, p.size, p.size)
		}
		buf = p.batchBuf
	}
	tensor.StackInto(buf, frames)
	ws := batchWorkspaces.Get().(*nn.Workspace)
	probs := tensor.SoftmaxRows(p.model.Infer(buf, ws))
	batchWorkspaces.Put(ws)
	return probs, nil
}

// batchWorkspaces holds the activation buffers of fused batch passes.
// Pooled rather than kept per pipeline: any instance may lead a fused
// group, and batch-wide buffers on every leader would stay resident, while
// the pool holds about one workspace per concurrent pass and the garbage
// collector may drop idle ones.
var batchWorkspaces = sync.Pool{New: func() any { return new(nn.Workspace) }}

// DecideRow turns row r of a ProbsBatch probability matrix into this
// pipeline's Detection: threshold, then the k-of-n debounce vote, which
// advances by one frame — rows must therefore be consumed in frame order.
// Callers serialize DecideRow the same way they serialize Detect.
func (p *Pipeline) DecideRow(probs *tensor.Tensor, r int) Detection {
	pObstacle := float64(probs.At2(r, 1))
	classes := probs.Dim(1)
	raw := pObstacle >= p.threshold
	decided := raw
	if p.debounceN > 0 {
		p.history[p.histPos] = raw
		p.histPos = (p.histPos + 1) % p.debounceN
		if p.histCount < p.debounceN {
			p.histCount++
		}
		votes := 0
		for i := 0; i < p.histCount; i++ {
			if p.history[i] {
				votes++
			}
		}
		decided = votes >= p.debounceK
	}
	return Detection{
		Obstacle:    decided,
		Confidence:  pObstacle,
		Uncertainty: safety.Entropy(probs.Data()[r*classes : (r+1)*classes]),
	}
}

// DetectBatch classifies the frames in one fused forward pass and returns
// per-frame Detections in submission order. It is exactly equivalent to
// calling Detect on each frame in sequence — same probabilities
// (bit-identical kernels), same debounce trajectory — just one matmul per
// layer instead of len(frames).
func (p *Pipeline) DetectBatch(frames []*tensor.Tensor) ([]Detection, error) {
	probs, err := p.ProbsBatch(frames)
	if err != nil {
		return nil, err
	}
	dets := make([]Detection, len(frames))
	for i := range frames {
		dets[i] = p.DecideRow(probs, i)
	}
	return dets, nil
}

// LoopConfig parameterizes a closed-loop scenario run.
type LoopConfig struct {
	// FrameSize is the sensor patch side in pixels.
	FrameSize int
	// Assessor fuses the criticality signals.
	Assessor safety.Assessor
	// Governor, when non-nil, adapts the reversible model each tick. When
	// nil the model runs as-is (static baselines).
	Governor *governor.Governor
	// Spec is the platform whose energy model accrues per-tick cost. The
	// zero value disables energy accounting.
	Spec platform.Spec
	// Contract is the quality contract violations are scored against
	// whenever a reversible model is present (with or without a governor).
	// The zero value falls back to safety.DefaultContract. A tick is a
	// violation when the active level's calibrated accuracy is below the
	// floor of the current criticality class *and* a level meeting the
	// floor (or the dense level) was available but not active — running
	// dense against an unsatisfiable floor is not a violation.
	Contract safety.Contract
	// Record, when true, captures per-tick series into the result Recorder.
	Record bool
	// Seed drives the world (traffic and sensor noise).
	Seed int64
}

// LoopResult aggregates a scenario run.
type LoopResult struct {
	// Scenario is the scenario name.
	Scenario string
	// Ticks is the number of control ticks executed.
	Ticks int
	// Collided reports a collision during the run.
	Collided bool
	// Missed counts obstacle-present frames the pipeline missed;
	// MissedCritical restricts to ticks at Critical or Emergency class.
	Missed, MissedCritical int
	// ObstacleTicks counts frames with ground-truth obstacles.
	ObstacleTicks int
	// FalseAlarms counts obstacle-free frames declared obstacles.
	FalseAlarms int
	// EnergyMJ is the summed per-inference energy over the run.
	EnergyMJ float64
	// Switches is the number of level transitions (0 without a governor).
	Switches int
	// Violations counts ticks the active level ran below the contract
	// floor while a better option existed (see LoopConfig.Contract).
	Violations int
	// MeanLevel is the average active level index (0 without a governor).
	MeanLevel float64
	// DetectionGaps holds, per obstacle episode (a maximal run of
	// obstacle-present ticks), the gap in meters at which the pipeline
	// first detected it — the reaction-distance metric. Episodes never
	// detected contribute -1.
	DetectionGaps []float64
	// Recorder holds per-tick series when LoopConfig.Record was set:
	// "score", "class", "level", "truth", "detected", "energy_mj", "ttc".
	Recorder *metrics.Recorder
}

// MissRate returns Missed/ObstacleTicks (0 when no obstacles appeared).
func (r LoopResult) MissRate() float64 {
	if r.ObstacleTicks == 0 {
		return 0
	}
	return float64(r.Missed) / float64(r.ObstacleTicks)
}

// Stack is the adaptation surface the closed loop drives each tick: frame
// classification, a governor tick, and the level-library view the contract
// scoring and energy accounting read. Two implementations exist:
// the package-internal soloStack (what RunScenario wraps around a bare
// pipeline + model) and fleet.Instance, whose methods lock per call so one
// loop goroutine per instance composes safely with a fleet-level budget
// governor retargeting levels concurrently.
type Stack interface {
	// Detect classifies one [1, S, S] frame. A frame the stack cannot
	// serve (geometry mismatch, fenced instance) returns an error; the
	// loop treats it as a failed tick.
	Detect(frame *tensor.Tensor) (Detection, error)
	// Tick runs one governor iteration (a no-op Decision when the stack has
	// no governor attached).
	Tick(tick int, a safety.Assessment) (governor.Decision, error)
	// Current returns the active level index (0 without a reversible model).
	Current() int
	// Levels returns the calibrated level library (nil without a reversible
	// model).
	Levels() []*core.Level
	// Switches returns the number of level changes the stack's governor has
	// executed (0 without a governor).
	Switches() int
}

// soloStack adapts the single-model triple (pipeline, reversible model,
// optional governor) RunScenario has always run to the Stack seam. Any of
// rm and gov may be nil (static baselines).
type soloStack struct {
	pipe *Pipeline
	rm   *core.ReversibleModel
	gov  *governor.Governor
}

func (s soloStack) Detect(frame *tensor.Tensor) (Detection, error) { return s.pipe.Detect(frame) }

func (s soloStack) Tick(tick int, a safety.Assessment) (governor.Decision, error) {
	if s.gov == nil {
		return governor.Decision{}, nil
	}
	return s.gov.Tick(tick, a)
}

func (s soloStack) Current() int {
	if s.rm == nil {
		return 0
	}
	return s.rm.Current()
}

func (s soloStack) Levels() []*core.Level {
	if s.rm == nil {
		return nil
	}
	return s.rm.Levels()
}

func (s soloStack) Switches() int {
	if s.gov == nil {
		return 0
	}
	return s.gov.Switches()
}

// RunScenario executes one closed-loop run of the scenario: each tick the
// world is assessed (using the previous tick's perception uncertainty — the
// monitor acts on observed state), the governor adapts the model, the
// pipeline classifies the current frame, and the ego brakes on detection.
func RunScenario(sc sim.Scenario, model *nn.Sequential, rm *core.ReversibleModel, cfg LoopConfig) (LoopResult, error) {
	if cfg.FrameSize <= 0 {
		cfg.FrameSize = 16
	}
	if cfg.Assessor == (safety.Assessor{}) {
		cfg.Assessor = safety.DefaultAssessor()
	}
	if err := cfg.Assessor.Validate(); err != nil {
		return LoopResult{}, err
	}
	pipe, err := NewPipeline(model, cfg.FrameSize, 0)
	if err != nil {
		return LoopResult{}, err
	}
	st := soloStack{pipe: pipe, rm: rm, gov: cfg.Governor}
	// Live-estimate fallback for uncalibrated levels, preserved from the
	// pre-Stack loop: estimate the platform cost of the model as currently
	// configured.
	estimate := func() float64 { return cfg.Spec.Estimate(model).EnergyMJ }
	return runLoop(sc, st, cfg, estimate)
}

// RunStack executes the same closed loop over any Stack — in particular a
// fleet.Instance, whose per-call locking lets a fleet budget governor
// retarget levels while the loop runs. cfg.Governor is ignored (ticking
// goes through st.Tick); cfg.FrameSize must match the stack's pipeline
// frame size. Energy accounting uses calibrated per-level EnergyMJ only —
// there is no model handle here to live-estimate uncalibrated levels, so
// such levels accrue zero.
func RunStack(sc sim.Scenario, st Stack, cfg LoopConfig) (LoopResult, error) {
	if st == nil {
		return LoopResult{}, fmt.Errorf("perception: nil stack")
	}
	if cfg.FrameSize <= 0 {
		cfg.FrameSize = 16
	}
	if cfg.Assessor == (safety.Assessor{}) {
		cfg.Assessor = safety.DefaultAssessor()
	}
	if err := cfg.Assessor.Validate(); err != nil {
		return LoopResult{}, err
	}
	return runLoop(sc, st, cfg, nil)
}

// runLoop is the shared closed-loop body behind RunScenario and RunStack.
// estimate, when non-nil, lazily prices a level with no calibrated EnergyMJ
// (computed once per level); nil means uncalibrated levels cost zero.
func runLoop(sc sim.Scenario, st Stack, cfg LoopConfig, estimate func() float64) (LoopResult, error) {
	world, err := sim.NewWorld(sc, cfg.Seed)
	if err != nil {
		return LoopResult{}, err
	}

	res := LoopResult{Scenario: sc.Name}
	if cfg.Record {
		res.Recorder = metrics.NewRecorder()
	}
	useEnergy := cfg.Spec.MACsPerSecond > 0

	// Per-level energy: prefer calibrated values, fall back to live
	// estimates (computed lazily once per level).
	levelEnergy := map[int]float64{}
	energyNow := func() float64 {
		if !useEnergy {
			return 0
		}
		lvl := st.Current()
		if lvls := st.Levels(); lvl >= 0 && lvl < len(lvls) {
			if e := lvls[lvl].EnergyMJ; e > 0 {
				return e
			}
		}
		if e, ok := levelEnergy[lvl]; ok {
			return e
		}
		e := 0.0
		if estimate != nil {
			e = estimate()
		}
		levelEnergy[lvl] = e
		return e
	}

	contract := cfg.Contract
	if contract == (safety.Contract{}) {
		contract = safety.DefaultContract()
	}
	if err := contract.Validate(); err != nil {
		return LoopResult{}, err
	}

	lastUncertainty := 0.0
	var levelSum float64
	trackLevel := len(st.Levels()) > 0
	inEpisode := false
	episodeDetected := false
	for !world.Done() {
		tick := world.Tick()
		assessment := cfg.Assessor.Assess(world.TTC(), world.Complexity(), lastUncertainty)

		if _, err := st.Tick(tick, assessment); err != nil {
			return res, err
		}
		if lvls := st.Levels(); len(lvls) > 0 {
			floor := contract.Floor(assessment.Class)
			cur := st.Current()
			active := lvls[cur]
			if active.Accuracy < floor && cur != governor.DeepestMeeting(lvls, floor) {
				res.Violations++
			}
		}

		frame, truth := world.Frame(cfg.FrameSize)
		det, err := st.Detect(frame)
		if err != nil {
			return res, fmt.Errorf("perception: tick %d: %w", tick, err)
		}
		lastUncertainty = det.Uncertainty
		world.SetBraking(det.Obstacle)

		if truth {
			res.ObstacleTicks++
			if !inEpisode {
				inEpisode = true
				episodeDetected = false
			}
			if det.Obstacle {
				if !episodeDetected {
					_, gap := world.LeadActor()
					res.DetectionGaps = append(res.DetectionGaps, gap)
					episodeDetected = true
				}
			} else {
				res.Missed++
				if assessment.Class >= safety.Critical {
					res.MissedCritical++
				}
			}
		} else {
			if inEpisode {
				if !episodeDetected {
					res.DetectionGaps = append(res.DetectionGaps, -1)
				}
				inEpisode = false
			}
			if det.Obstacle {
				res.FalseAlarms++
			}
		}
		e := energyNow()
		res.EnergyMJ += e
		if trackLevel {
			levelSum += float64(st.Current())
		}
		if cfg.Record {
			res.Recorder.Record("score", assessment.Score)
			res.Recorder.Record("class", float64(assessment.Class))
			lvl := 0
			if trackLevel {
				lvl = st.Current()
			}
			res.Recorder.Record("level", float64(lvl))
			res.Recorder.Record("truth", boolTo01(truth))
			res.Recorder.Record("detected", boolTo01(det.Obstacle))
			res.Recorder.Record("energy_mj", e)
			ttc := world.TTC()
			if math.IsInf(ttc, 1) {
				ttc = -1
			}
			res.Recorder.Record("ttc", ttc)
		}

		world.Step()
		res.Ticks++
	}
	if inEpisode && !episodeDetected {
		res.DetectionGaps = append(res.DetectionGaps, -1)
	}
	res.Collided = world.Collided()
	res.Switches = st.Switches()
	if res.Ticks > 0 {
		res.MeanLevel = levelSum / float64(res.Ticks)
	}
	return res, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
