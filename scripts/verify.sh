#!/usr/bin/env bash
# verify.sh — the tier-1.5 verification gate (see ROADMAP.md).
#
# Runs, in order, failing fast on the first nonzero exit:
#   1. go vet            — the standard toolchain checks
#   2. go build          — everything compiles
#   3. rpnlint           — the project's safety-invariant analyzers
#                          (nopanic, floateq, lockcheck, detrand, ctxbound,
#                          goroleak, errdrop, atomicmix; see docs/LINT.md).
#                          One -format=json run doubles as the machine-
#                          readable artifact (rpnlint.json) and, through
#                          -stale, the stale-suppression audit: the step
#                          fails on any unsuppressed finding OR any
#                          lint:allow comment that suppresses nothing.
#   4. rpnlint perf      — the parallel loader must not regress against the
#                          serial one (tolerance 1.5x, best of two attempts,
#                          because CI wall clocks are noisy)
#   5. go test           — the full unit-test suite
#   6. go test -race     — the concurrency-sensitive packages under the
#                          race detector
#   7. go test -fuzz     — a short coverage-guided smoke run of the binary
#                          format fuzzers and of the kernel differentials
#                          (dense a·bᵀ, direct convolution, max-pool, each
#                          against the kernel it replaced; the checked-in
#                          corpus always runs as part of step 5)
#   8. docs consistency  — the METRICS.md cross-check (every emitted metric
#                          documented, every documented metric emitted) and
#                          the docs link check (every docs/*.md file that
#                          README.md, DESIGN.md, or a docs page references
#                          must exist — a renamed chapter fails here, not in
#                          a reader's 404)
#   9. fleet throughput  — scripts/bench_fleet.sh: the batched fused
#                          dispatch path must not be slower than the
#                          per-instance path at fleet sizes ≥ 8 (best of
#                          two attempts); writes BENCH_fleet.json
#  10. fleet memory      — scripts/bench_mem.sh: a 64-wide fleet of
#                          copy-on-write store views must keep per-instance
#                          resident bytes ≤ 0.25× the independent-build
#                          baseline; writes BENCH_mem.json
#  11. telemetry hot path — scripts/bench_telemetry.sh: the sharded
#                          registry must beat the seed mutex registry ≥ 4×
#                          under contended Observe/Incr at 8 goroutines
#                          (non-regression on hosts too small to express
#                          contention); writes BENCH_telemetry.json
#  12. ingest front end   — scripts/bench_ingest.sh: the sheds-before-
#                          blocking gate — at a 64-vehicle overload the
#                          criticality queue must actually shed AND p99
#                          enqueue latency must stay bounded (a blocking
#                          front end shows queue-scale waits there);
#                          writes BENCH_ingest.json
#
# Artifacts land in $VERIFY_ARTIFACT_DIR (default: a fresh temp dir,
# echoed so CI can collect it).
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    echo "==> $*"
    "$@"
}

ARTIFACT_DIR="${VERIFY_ARTIFACT_DIR:-$(mktemp -d /tmp/rpn-verify.XXXXXX)}"
mkdir -p "$ARTIFACT_DIR"
RPNLINT="$ARTIFACT_DIR/rpnlint"

step go vet ./...
step go build ./...
step go build -o "$RPNLINT" ./cmd/rpnlint

echo "==> rpnlint -stale -format=json ./... (artifact: $ARTIFACT_DIR/rpnlint.json)"
if ! "$RPNLINT" -stale -format=json ./... > "$ARTIFACT_DIR/rpnlint.json"; then
    echo "rpnlint gate failed; findings and stale suppressions:"
    "$RPNLINT" -stale ./... || true
    exit 1
fi

# Parallel-loader wall-clock non-regression: the goroutine-per-package
# type-checker must stay within 1.5x of the serial loader. Wall clocks are
# noisy, so a failing first attempt gets one re-measure before the gate
# trips.
echo "==> rpnlint parallel loader non-regression"
lint_ms() { # lint_ms <extra-flags...> -> milliseconds on stdout
    local t0 t1
    t0=$(date +%s%N)
    "$RPNLINT" "$@" ./... > /dev/null
    t1=$(date +%s%N)
    echo $(( (t1 - t0) / 1000000 ))
}
perf_ok=0
for attempt in 1 2; do
    serial_ms=$(lint_ms -parallel=false)
    parallel_ms=$(lint_ms)
    echo "    attempt $attempt: serial ${serial_ms}ms, parallel ${parallel_ms}ms"
    if (( parallel_ms * 10 <= serial_ms * 15 )); then
        perf_ok=1
        break
    fi
done
if (( ! perf_ok )); then
    echo "parallel loader regressed: ${parallel_ms}ms > 1.5x serial ${serial_ms}ms"
    exit 1
fi

step go test ./...
step go test -race ./internal/core/ ./internal/perception/ ./internal/tensor/ ./internal/governor/ ./internal/metrics/ ./internal/telemetry/ ./internal/telemetry/window/ ./internal/telemetry/otlp/ ./internal/fleet/ ./internal/fault/ ./internal/health/ ./internal/ingest/
step go test -run '^$' -fuzz FuzzReadTensor -fuzztime 5s ./internal/tensor/
step go test -run '^$' -fuzz FuzzStackRoundTrip -fuzztime 5s ./internal/tensor/
step go test -run '^$' -fuzz FuzzMatMulTransB -fuzztime 5s ./internal/tensor/
step go test -run '^$' -fuzz FuzzConv2DInfer -fuzztime 5s ./internal/nn/
step go test -run '^$' -fuzz FuzzMaxPool2DInfer -fuzztime 5s ./internal/nn/
step go test -run '^$' -fuzz FuzzMaskRoundTrip -fuzztime 5s ./internal/prune/
step go test -run '^$' -fuzz FuzzStoreRoundTrip -fuzztime 5s ./internal/core/
step go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 5s ./internal/telemetry/otlp/
step go test -run '^$' -fuzz FuzzSeriesRoundTrip -fuzztime 5s ./internal/telemetry/
step go test -run '^$' -fuzz FuzzWindowStoreRoundTrip -fuzztime 5s ./internal/telemetry/window/
step go test -run '^$' -fuzz FuzzParseFaultSpec -fuzztime 5s ./internal/fault/
step go test -run '^$' -fuzz FuzzReadFrame -fuzztime 5s ./internal/ingest/
step go test -run TestMetricsDocCrossCheck -count=1 ./internal/telemetry/

# Docs link check: every docs/*.md page referenced from README.md,
# DESIGN.md, or another docs page must exist on disk.
echo "==> docs link check"
docs_ok=1
while read -r src ref; do
    # Relative links resolve against the source file's directory.
    target="$(dirname "$src")/$ref"
    target="${target#./}"
    if [[ ! -f "$target" ]]; then
        echo "docs link check: $src references $target, which does not exist" >&2
        docs_ok=0
    fi
done < <(grep -oE '\((docs/)?[A-Za-z_]+\.md(#[a-z-]+)?\)' README.md DESIGN.md docs/*.md \
    | sed -E 's/[()]//g; s/#[a-z-]+$//' \
    | awk -F: '$2 ~ /\.md$/ { print $1, $2 }' | sort -u)
(( docs_ok )) || exit 1

step scripts/bench_fleet.sh
step scripts/bench_mem.sh
step scripts/bench_telemetry.sh
step scripts/bench_ingest.sh

echo "verify: all gates passed (artifacts: $ARTIFACT_DIR)"
