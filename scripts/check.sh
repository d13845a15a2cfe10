#!/usr/bin/env bash
# Full local CI sweep:
#   1. tier-1: default build + complete ctest suite
#   2. ASan/UBSan build + complete ctest suite
#   3. TSan build + the concurrent-sweep and kernel-pool suites
#      (sweep jobs and farm workers run simulations on threads)
#   4. short check_fuzz corpus (schedule-perturbation + auditor)
#   5. observability smoke: tiny EM3D sweep with trace + metrics out
#   6. warm-start smoke: forked sweep equals cold sweep; crash
#      smoke: a cached sweep killed -9 after its first finished point
#      reruns with >= 1 point from the result cache and prints
#      exactly what an uninterrupted, uncached run prints
#   7. farm smoke: a `sweep_cli --farm-dir --jobs 0` campaign whose
#      farm.json appears only once all 6 jobs are queued, worked by
#      three `farm_cli worker` processes — one dying kill -9-style
#      after its first claim, one with a stalled heartbeat — yields
#      the full result set, byte-identical to the local run and to
#      `--farm-dir --jobs 2`, with the reclaimed lease in the status
#      JSON (the reclaim waits out the default 10 s lease TTL)
#   8. predict smokes: the analytic sweep overlay prints a MAPE per
#      mechanism, delay injection reports its propagation, and
#      farm-dir + obs flags are rejected (farm runs are obs-detached);
#      graph sweep smoke: every ext3 --quick base row (all 30 graph
#      captures) prints a predicted runtime equal to the simulated one
#   9. lint (runs first): no getenv in src/, bench/ or examples/
#      outside the farm's FARM_FAULT hook and perf_kernel's
#      ALEWIFE_GIT_SHA provenance stamp
#  10. benchmark self-test: perfbench builds against src/ (Release,
#      into the git-ignored .bench_build/), a planted truncated cache
#      entry and a planted one-cycle mismatch each fail a run, and
#      every workload smoke-runs with and without tracing
#  11. rejection smoke: a bisection target of -3 B/cycle (cross traffic
#      above the native bisection) and a msglen point of -1 are
#      refused before any simulation runs, under a time and memory
#      limit so a regression fails fast instead of filling the host
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitizer builds and the benchmark self-test
#            (tier-1 + fuzz corpus and smokes only)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n=== %s ===\n' "$*"; }

step "lint: no environment knobs in src/, bench/ or examples/"
# ResultCache keys and farm job files cannot see the environment, so a
# knob read from it could change a result that a cache hit or a farm
# worker then returns for a run without it. Settings travel in
# MachineConfig, RunSpec or CLI flags. Two reads are exempt because
# they never change a result: src/exp/queue.cc's FARM_FAULT injects a
# queue fault, and bench/perf_kernel.cc's ALEWIFE_GIT_SHA is the
# provenance stamp scripts/bench.sh sets.
if grep -rn getenv src bench examples \
    | grep -v -e '^src/exp/queue\.cc:.*"FARM_FAULT"' \
              -e '^bench/perf_kernel\.cc:.*"ALEWIFE_GIT_SHA"'; then
    echo "lint: getenv (above); pass the setting in RunSpec,"
    echo "      MachineConfig or a CLI flag instead"
    exit 1
fi

step "tier-1: build + ctest"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build -j "$JOBS" --output-on-failure

if [[ "$FAST" -eq 0 ]]; then
    step "ASan/UBSan: build + ctest"
    cmake -B build-asan -S . -DALEWIFE_SANITIZE=address,undefined \
        >/dev/null
    cmake --build build-asan -j "$JOBS"
    ctest --test-dir build-asan -j "$JOBS" --output-on-failure

    # The full ctest pass above includes the ckpt label; this explicit
    # run guards the label itself (a save->restore->run sequence that
    # leaks or reads stale state must fail here, visibly).
    step "ASan/UBSan: ckpt label (save->restore->run)"
    ctest --test-dir build-asan -j "$JOBS" --output-on-failure -L ckpt

    # The graph-analytics family is the newest coherence/NI stressor
    # (irregular point-to-point traffic, exclusive prefetch + recall
    # interleavings); run its label explicitly so a leak or stale
    # read in that path fails here by name.
    step "ASan/UBSan: graph label (workload family + differential)"
    ctest --test-dir build-asan -j "$JOBS" --output-on-failure -L graph

    # The farm's recovery paths (lease reaping, retry/poison, cache
    # quarantine, kill-after-claim death test) move files while worker
    # threads run; prove them leak- and UB-free by name.
    step "ASan/UBSan: farm label (queue protocol + fault recovery)"
    ctest --test-dir build-asan -j "$JOBS" --output-on-failure -L farm

    step "TSan: build + concurrent-sweep and kernel-pool suites"
    cmake -B build-tsan -S . -DALEWIFE_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$JOBS"
    # KernelGolden/EventPool/InlineFn cover the slab pool + free-list +
    # generation logic; the ASan pass above runs them too, so the
    # kernel determinism regression is sanitizer-proven both ways.
    # Recycler covers the per-thread free lists that packets, payloads
    # and coroutine frames come from (sweep jobs run on threads).
    ctest --test-dir build-tsan -j "$JOBS" --output-on-failure \
        -R "SweepEngine|Determinism|EventPool|KernelGolden|InlineFn|RadixQueue|Recycler"

    # perfbench links src/ directly, so an API change there must not
    # be left for a benchmark run to find.
    step "perfbench: build + self-test (planted failures, every workload)"
    python3 perfbench/run.py --selftest
fi

step "check_fuzz: short corpus"
./build/bench/check_fuzz --seeds 4 --ops 100
./build/bench/check_fuzz --inject-bug

step "rejection smoke: saturating cross traffic and bad msglen points"
# A bisection target <= 0 asks for cross traffic at or above the native
# bisection; that traffic alone saturates every horizontal link and
# queues deliveries without bound. The plan must refuse it before any
# event runs. The limits turn a regression into a fast failure.
reject_smoke() {
    local want="$1"; shift
    local out
    if out="$( (ulimit -v 2000000; timeout 20 \
            ./build/examples/sweep_cli --app stream --mechs SM "$@") \
            2>&1)"; then
        echo "rejection smoke: sweep_cli $* was not rejected"; exit 1
    fi
    grep -q "$want" <<<"$out" \
        || { echo "rejection smoke: sweep_cli $* failed without" \
                  "naming the value:"; echo "$out"; exit 1; }
}
reject_smoke "cannot emulate a bisection of -3 bytes/cycle" \
    --sweep bisection --points -3
reject_smoke "msglen point -1 is not a message size" \
    --sweep msglen --points -1

step "warm-start smoke: forked sweep matches cold sweep"
COLD="$(./build/examples/sweep_cli --app stream --mechs SM,MP-I \
    --sweep ideal-latency --points 15,100,400)"
WARM="$(./build/examples/sweep_cli --app stream --mechs SM,MP-I \
    --sweep ideal-latency --points 15,100,400 --warm-start 500)"
[[ "$COLD" == "$WARM" ]] \
    || { echo "warm-start smoke: forked sweep diverged from cold run"; \
         exit 1; }

step "crash-tolerance smoke: kill -9 a cached sweep, rerun from cache"
# Four MOLDYN points of >= 0.3 s each. A killed sweep keeps every point
# it finished in the result cache; the rerun takes those from the cache,
# re-runs the rest cold, and must print exactly what an uninterrupted
# run without a cache prints.
CRASH_ARGS=(--app moldyn --mechs SM,SM+PF --sweep bisection \
    --points 18,9 --scale 2)
CRASH_DIR="$(mktemp -d)"
CRASH_REF="$(./build/examples/sweep_cli "${CRASH_ARGS[@]}")"
./build/examples/sweep_cli "${CRASH_ARGS[@]}" \
    --cache-dir "$CRASH_DIR/cache" --progress >/dev/null 2>&1 &
CRASH_PID=$!
cached_points() {
    find "$CRASH_DIR/cache" -maxdepth 1 -name '*.json' 2>/dev/null \
        | wc -l
}
# Kill as soon as the first point lands in the cache.
while [[ "$(cached_points)" -lt 1 ]] && kill -0 "$CRASH_PID" 2>/dev/null
do
    sleep 0.05
done
kill -9 "$CRASH_PID" 2>/dev/null || true
wait "$CRASH_PID" 2>/dev/null || true
CRASH_KEPT="$(cached_points)"
[[ "$CRASH_KEPT" -ge 1 && "$CRASH_KEPT" -lt 4 ]] \
    || { echo "crash smoke: expected a sweep killed mid-way, found" \
              "$CRASH_KEPT of 4 points cached"; exit 1; }
CRASH_OUT="$(./build/examples/sweep_cli "${CRASH_ARGS[@]}" \
    --cache-dir "$CRASH_DIR/cache" --progress 2>"$CRASH_DIR/progress")"
grep -Eq '\] [0-9]+ running, [1-9][0-9]* cached' "$CRASH_DIR/progress" \
    || { echo "crash smoke: rerun took no point from the cache"; \
         exit 1; }
[[ "$CRASH_OUT" == "$CRASH_REF" ]] \
    || { echo "crash smoke: rerun output differs from a straight run"; \
         exit 1; }
rm -rf "$CRASH_DIR"

step "graph sweep smoke: ext3 matrix through the sweep engine"
# Base rows (hop ns 40, MB/s 45) replay their own capture, so each of
# the 30 (family, app, mechanism) captures must predict its measured
# runtime exactly: pred == cycles, ratio 1.00.
EXT3_BASE="$(./build/bench/ext3_graph_sweep --quick \
    | awk 'NF == 8 && $4 == "40" && $5 == "45"')"
[[ "$(wc -l <<<"$EXT3_BASE")" -eq 30 ]] \
    || { echo "graph smoke: expected 30 ext3 base rows"; exit 1; }
awk '$6 != $7 || $8 != "1.00" { print; bad = 1 } END { exit bad }' \
    <<<"$EXT3_BASE" \
    || { echo "graph smoke: ext3 base rows above mispredict"; exit 1; }
# The catalog seam: a graph app runs through the generic sweep CLI
# and self-verifies (bit-audited digest) like any paper workload.
./build/examples/sweep_cli --app bfs --graph rmat --mechs SM,MP-P \
    --sweep none | grep -q "yes" \
    || { echo "graph smoke: sweep_cli bfs did not verify"; exit 1; }

step "farm smoke: sweep_cli coordinator + faulty workers, bit-identical"
FARM_ROOT="$(mktemp -d)"
FARM_DIR="$FARM_ROOT/farm"
FARM_ARGS=(--app stream --mechs SM,MP-I,MP-P --sweep bisection \
    --points 18,9)
./build/examples/sweep_cli "${FARM_ARGS[@]}" \
    --out "$FARM_ROOT/local.json" >/dev/null
# In-process farm workers: same bytes as the local run.
./build/examples/sweep_cli "${FARM_ARGS[@]}" \
    --farm-dir "$FARM_ROOT/farm2" --jobs 2 \
    --out "$FARM_ROOT/farmed2.json" >/dev/null 2>&1 \
    || { echo "farm smoke: --farm-dir --jobs 2 exited non-zero"; exit 1; }
diff "$FARM_ROOT/local.json" "$FARM_ROOT/farmed2.json" \
    || { echo "farm smoke: --jobs 2 farm diverged from local run"; \
         exit 1; }
# --jobs 0: the coordinator runs no job itself; the external workers
# below do them all.
./build/examples/sweep_cli "${FARM_ARGS[@]}" --farm-dir "$FARM_DIR" \
    --jobs 0 --out "$FARM_ROOT/farmed.json" >/dev/null 2>&1 &
COORD_PID=$!
for _ in $(seq 1 100); do
    [[ -f "$FARM_DIR/farm.json" ]] && break
    sleep 0.1
done
[[ -f "$FARM_DIR/farm.json" ]] \
    || { echo "farm smoke: coordinator wrote no manifest"; exit 1; }
# farm.json is written last: every job is queued once it exists, so
# a worker that starts now cannot mistake the campaign for drained.
FARM_PENDING="$(find "$FARM_DIR/pending" -name '*.json' | wc -l)"
[[ "$FARM_PENDING" -eq 6 ]] \
    || { echo "farm smoke: $FARM_PENDING of 6 jobs queued at farm.json"; \
         exit 1; }
# Worker 1 dies kill -9-style (exit 9, lease held, no cleanup) right
# after its first claim; the coordinator must reap the stale lease and
# re-queue that job — the run-to-completion assertion below implies it.
set +e
FARM_FAULT=kill-after-claim ./build/examples/farm_cli worker \
    --farm-dir "$FARM_DIR" >/dev/null 2>&1
KILLED_RC=$?
set -e
[[ "$KILLED_RC" -eq 9 ]] \
    || { echo "farm smoke: kill-after-claim worker exited $KILLED_RC"; \
         exit 1; }
# Worker 2 works but never renews its lease; worker 3 is healthy. The
# campaign must produce the full result set regardless.
FARM_FAULT=stall-heartbeat ./build/examples/farm_cli worker \
    --farm-dir "$FARM_DIR" >/dev/null 2>&1 &
STALL_PID=$!
./build/examples/farm_cli worker --farm-dir "$FARM_DIR" \
    >/dev/null 2>&1
wait "$COORD_PID" \
    || { echo "farm smoke: coordinator exited non-zero"; exit 1; }
wait "$STALL_PID" 2>/dev/null || true
# Full result set, bit-identical to the single-process sweep.
diff "$FARM_ROOT/local.json" "$FARM_ROOT/farmed.json" \
    || { echo "farm smoke: farmed sweep diverged from local run"; \
         exit 1; }
# The killed worker's lease shows up as a reclaim in the status JSON.
grep -Eq '"reclaims": [1-9]' "$FARM_DIR/status.json" \
    || { echo "farm smoke: no reclaimed lease in status JSON"; exit 1; }
./build/examples/farm_cli status --farm-dir "$FARM_DIR" \
    | grep -q '"alewife-farm-status"' \
    || { echo "farm smoke: status subcommand failed"; exit 1; }
rm -rf "$FARM_ROOT"

step "predict smoke: analytic overlay + delay-injection report"
# The clock-sweep overlay must print a predicted value and a MAPE for
# every requested mechanism (accuracy itself is asserted by the
# critpath-labelled golden tests; this proves the CLI path end-to-end).
PRED="$(./build/examples/sweep_cli --app stream --mechs SM,MP-I \
    --sweep clock --points 14,40 --predict)"
[[ "$(grep -c "MAPE" <<<"$PRED")" -eq 2 ]] \
    || { echo "predict smoke: expected 2 MAPE lines"; exit 1; }
# A stall well past the barrier slack must propagate to other nodes.
./build/examples/sweep_cli --app stream --mechs SM --inject-node 0 \
    --inject-at 100 --inject-cycles 8000 \
    | grep -q "finish shift +" \
    || { echo "predict smoke: injection report missing"; exit 1; }
# Farm campaigns are obs-detached; the combination must be rejected.
PREDF="$(mktemp -d)"
if ./build/examples/sweep_cli --app stream --mechs SM --sweep none \
    --farm-dir "$PREDF/farm" --metrics-out "$PREDF/m.json" \
    >/dev/null 2>&1; then
    echo "predict smoke: farm-dir + obs was not rejected"; exit 1
fi
rm -rf "$PREDF"

step "observability smoke: EM3D with trace + metrics"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
./build/examples/sweep_cli --app em3d --mechs SM --sweep none \
    --scale 0.25 --obs-interval 500 \
    --trace-out "$OBS_DIR/trace.json" \
    --metrics-out "$OBS_DIR/metrics.json"
for f in "$OBS_DIR"/trace-*.json "$OBS_DIR"/metrics.json; do
    [[ -s "$f" ]] || { echo "obs smoke: missing/empty $f"; exit 1; }
done
grep -q '"traceEvents"' "$OBS_DIR"/trace-*.json
grep -q '"alewife-metrics-sweep"' "$OBS_DIR/metrics.json"

step "all checks passed"
