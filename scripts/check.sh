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
#   7. farm smokes: a multi-process campaign with one worker dying
#      kill -9-style after its first claim and one with a stalled
#      heartbeat still yields the full, bit-identical result set with
#      the reclaimed lease visible in the status JSON
#   8. predict smokes: the analytic sweep overlay prints a MAPE per
#      mechanism, delay injection reports its propagation, and
#      farm-dir + obs flags are rejected (farm runs are obs-detached)
#   9. lint (runs first): no getenv in src/ outside the farm's
#      FARM_FAULT hook
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitizer builds (tier-1 + fuzz corpus only)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n=== %s ===\n' "$*"; }

step "lint: no environment knobs in src/"
# ResultCache keys and farm job files cannot see the environment, so a
# knob read from it could change a result that a cache hit or a farm
# worker then returns for a run without it. Settings travel in
# MachineConfig, RunSpec or CLI flags. src/exp/queue.cc is exempt: it
# reads FARM_FAULT, which injects a queue fault and never changes a
# result.
if grep -rn getenv src | grep -v '^src/exp/queue\.cc:'; then
    echo "lint: getenv in src/ (above); pass the setting in RunSpec,"
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

    step "TSan: build + parallel-engine and kernel-pool suites"
    cmake -B build-tsan -S . -DALEWIFE_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$JOBS"
    # KernelGolden/EventPool/InlineFn cover the slab pool + free-list +
    # generation logic; the ASan pass above runs them too, so the
    # kernel determinism regression is sanitizer-proven both ways.
    ctest --test-dir build-tsan -j "$JOBS" --output-on-failure \
        -R "SweepEngine|Determinism|EventPool|KernelGolden|InlineFn|RadixQueue"
fi

step "check_fuzz: short corpus"
./build/bench/check_fuzz --seeds 4 --ops 100
./build/bench/check_fuzz --inject-bug

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
./build/bench/ext3_graph_sweep --quick >/dev/null
# The catalog seam: a graph app runs through the generic sweep CLI
# and self-verifies (bit-audited digest) like any paper workload.
./build/examples/sweep_cli --app bfs --graph rmat --mechs SM,MP-P \
    --sweep none | grep -q "yes" \
    || { echo "graph smoke: sweep_cli bfs did not verify"; exit 1; }

step "farm smoke: coordinator + faulty workers, bit-identical results"
FARM_ROOT="$(mktemp -d)"
FARM_DIR="$FARM_ROOT/farm"
./build/examples/sweep_cli --app stream --mechs SM,MP-I,MP-P \
    --sweep bisection --points 18,9 --out "$FARM_ROOT/local.json" \
    >/dev/null
./build/examples/farm_cli coordinator --farm-dir "$FARM_DIR" \
    --app stream --mechs SM,MP-I,MP-P --sweep bisection \
    --points 18,9 --workers 0 --lease-ttl-ms 500 --heartbeat-ms 100 \
    --poll-ms 50 --backoff-ms 50 --out "$FARM_ROOT/farmed.json" \
    >/dev/null 2>&1 &
COORD_PID=$!
for _ in $(seq 1 100); do
    [[ -f "$FARM_DIR/farm.json" ]] && break
    sleep 0.1
done
[[ -f "$FARM_DIR/farm.json" ]] \
    || { echo "farm smoke: coordinator wrote no manifest"; exit 1; }
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

step "farm smoke: sweep_cli --farm-dir shares its batch"
FARM2="$(mktemp -d)"
./build/examples/sweep_cli --app stream --mechs SM,MP-P --sweep none \
    --farm-dir "$FARM2/farm" --jobs 2 | grep -q "yes" \
    || { echo "farm smoke: sweep_cli --farm-dir did not verify"; \
         exit 1; }
rm -rf "$FARM2"

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
