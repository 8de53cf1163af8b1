// Command perfbench is the repository's benchmark. It runs one workload
// against the real trained fleet, checks that every output is correct and
// prints its metrics as one JSON object on the last line of standard
// output. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload ingest_mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics, measured with no
// tracing installed. With --trace 1 the run measures the same workload
// twice, untraced and then traced, and prints the per-layer metrics and the
// tracing overhead; the spans go to .bench_build/trace/. README.md defines
// every metric on every workload.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric the benchmark prints.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// e2eDefs are the end-to-end metrics of an untraced run, on every workload.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"frame_p50_us", "us"},
	{"throughput_fps", "1/s"},
	{"restore_p50_us", "us"},
	{"live_heap_mb", "MB"},
	{"alloc_bytes_per_frame", "B"},
}

// layerDefs are the per-layer metrics of a traced run, on every workload.
func layerDefs() []metricDef {
	defs := []metricDef{
		{"ingest.enqueue_p99_us", "us"},
		{"ingest.submit_wait_p99_us", "us"},
		{"ingest.shed_ratio", "ratio"},
		{"ingest.reject_count", "count"},
		{"ingest.backpressure_count", "count"},
		{"ingest.queue_depth_max", "count"},
		{"fleet.dispatch_p50_us", "us"},
		{"fleet.dispatch_p99_us", "us"},
		{"perception.detect_p50_us", "us"},
		{"perception.detect_p99_us", "us"},
		{"health.guard_self_us", "us"},
		{"governor.tick_p50_us", "us"},
		{"governor.switches", "count"},
		{"governor.escalations", "count"},
		{"governor.violations", "count"},
	}
	for k := 1; k < numLevels; k++ {
		defs = append(defs, metricDef{fmt.Sprintf("core.restore_us.L%d-L0", k), "us"})
	}
	for k := 1; k < numLevels; k++ {
		defs = append(defs, metricDef{fmt.Sprintf("core.verify_us.L%d", k), "us"})
	}
	defs = append(defs,
		metricDef{"core.weights_written_per_restore", "count"},
		metricDef{"core.reload_ram_us", "us"},
		metricDef{"core.private_bytes", "B"},
		metricDef{"core.shared_bytes", "B"},
	)
	for _, l := range layerNames {
		for k := 0; k < numLevels; k++ {
			defs = append(defs, metricDef{fmt.Sprintf("nn.fwd_ns.%s.L%d", l, k), "ns"})
		}
	}
	return append(defs,
		metricDef{"telemetry.hook_ns", "ns"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_p99_us", "us"},
		metricDef{"runtime.sched_latency_p99_us", "us"},
		metricDef{"gen.lateness_p99_us", "us"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}

// setupReps is how many times an untraced run sets up.
const setupReps = 3

// config is one run's settings. The run works in the current directory,
// the repository root: artifacts go to .bench_build/ there.
type config struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string
	setupRep int
}

// outcome is what a workload hands back: counts, correctness problems, the
// metric values (without units) and the details that explain them.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]float64
	layers            map[string]float64
	detail            map[string]any
	spans             *spanStore
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"ingest_mix":  runIngestMix,
	"cutin_drive": runCutinDrive,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: ingest_mix or cutin_drive")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 10, "seconds one measured phase lasts")
	trace := fl.Int("trace", 0, "1: print per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	// setup_s is the median of setupReps set-ups; a traced run reports no
	// setup_s and sets up once.
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, root: ".", setupRep: setupReps}
	if cfg.trace {
		cfg.setupRep = 1
	}
	probeBefore := hostProbe()
	out, err := runW(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out.detail["host_probe_us"] = map[string]float64{"before": probeBefore, "after": hostProbe()}

	defs, vals := e2eDefs, out.e2e
	if cfg.trace {
		defs, vals = layerDefs(), out.layers
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			out.fail("metric %s was not measured", d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := res.Metrics[name]; !ok {
			out.fail("metric %s is not declared", name)
		}
	}
	res.Correct = len(out.problems) == 0

	out.detail["provenance"] = provenance(cfg, *workload)
	out.detail["problems"] = out.problems
	if err := writeArtifacts(cfg, *workload, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	detail, err := json.Marshal(out.detail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "detail %s\n", detail)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeArtifacts saves the run's details, and in a traced run its spans,
// under .bench_build/.
func writeArtifacts(cfg config, workload string, out *outcome) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-trace0", workload, cfg.seed)
	if cfg.trace {
		stem = fmt.Sprintf("%s-seed%d-trace1", workload, cfg.seed)
	}
	b, err := json.MarshalIndent(out.detail, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".json"), b, 0o644); err != nil {
		return err
	}
	if out.spans == nil {
		return nil
	}
	tdir := filepath.Join(cfg.root, ".bench_build", "trace")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	return out.spans.write(filepath.Join(tdir, stem+".jsonl"))
}

// cpuModel names the processor. cpu_amd64.go reads it through CPUID, since
// the benchmark reads no file outside its checkout (/proc/cpuinfo
// included); other architectures report it unknown.
var cpuModel = func() string { return "unknown" }

// provenance records what was measured where.
func provenance(cfg config, workload string) map[string]any {
	return map[string]any{
		"commit":        gitCommit(cfg.root),
		"source_sha256": sourceDigest(cfg.root),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"workload":      workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds.Seconds(),
		"trace":         cfg.trace,
		"setup_reps":    cfg.setupRep,
	}
}

// gitCommit reads the checked-out commit from .git without running git,
// from HEAD and the loose ref it names; a checkout that is not a git
// repository (or keeps the ref packed) reports "unknown" and is identified
// by source_sha256 instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every Go source and module file of the checkout, in
// path order, skipping hidden directories (.git, .bench_build).
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".s") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
