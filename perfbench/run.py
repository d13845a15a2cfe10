#!/usr/bin/env python3
"""Campaign benchmark of alewife-sim: build, run one workload, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig08_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Every call first builds the simulator library (from src/) and the
benchmark program (perfbench/src/) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); an
up-to-date build costs about a second. The program's report goes to
stdout. Its last line is one JSON object with the keys correct,
attempted, failed and metrics, where metrics holds exactly the
end_to_end (--trace 0) or per_layer (--trace 1) metrics BENCHMARK.json
names. The exit code is 1 when a check failed, 2 when the tree cannot
be built, and 3 when the program did not produce a valid result.

--selftest builds once, proves that a planted corrupt cache entry and
a planted wrong cache entry each fail the run, and runs every workload
at smoke size with and without tracing, checking that every named
metric is reported.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170

# Metrics the human-readable report prints per workload on --trace 0,
# beyond those BENCHMARK.json tracks.
REPORTED = {
    "fig08_cold": ["failed_frac", "calib_err_pct", "point_samples"],
    "graph_mp": ["failed_frac", "calib_err_pct", "point_samples"],
    "sweep_modes": ["failed_frac", "calib_err_pct", "point_samples",
                    "cold_point_ms", "cached_point_ms", "warm_point_ms",
                    "predict_point_ms", "farm_point_ms",
                    "predict_mape_pct"],
}


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die(f"'{' '.join(cmd)}' failed with exit code {r.returncode}", 2)


def build():
    """Configure (once) and build the program; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found beside perfbench/", 2)
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_logged(["cmake", "--build", bdir, "-j", jobs])
    return os.path.join(bdir, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() or "unknown"


def invoke(exe, workload, seed, seconds, trace, size="full", plant="none"):
    """Run the program; return (exit code, parsed result or None, stdout)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--plant", plant, "--work-dir", WORK_DIR]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark program exceeded {RUN_TIMEOUT_S} s", 3)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return r.returncode, result, r.stdout


def tracked_names(bench, trace):
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main_run(args):
    bench = load_bench()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(f"unknown workload '{args.workload}'", 2)
    exe = build()
    code, result, out = invoke(exe, args.workload, args.seed,
                               args.seconds, args.trace)
    if result is None or code not in (0, 1):
        sys.stderr.write(out)
        die(f"benchmark program exited with {code} without a valid result", 3)
    names = tracked_names(bench, args.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        die(f"benchmark program did not report {', '.join(missing)}", 3)
    body = out.rstrip("\n").split("\n")[:-1]
    print(f"git: {git_sha()}")
    print("\n".join(body))
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names},
    }
    print(json.dumps(final), flush=True)
    return code


def selftest():
    bench = load_bench()
    exe = build()
    failures = 0

    def check(what, ok):
        nonlocal failures
        print(("PASS  " if ok else "FAIL  ") + what, flush=True)
        failures += not ok

    for plant in ("corrupt-cache", "mismatch"):
        code, res, _ = invoke(exe, "sweep_modes", 7, 1, 0, "smoke", plant)
        check(f"planted {plant} fails the run (exit {code}, "
              f"failed {res and res['failed']})",
              code == 1 and res is not None and res["failed"] > 0
              and not res["correct"]
              and res["metrics"]["failed_frac"]["value"] > 0)

    for w in bench["workloads"]:
        for trace in (0, 1):
            code, res, out = invoke(exe, w["name"], 7, 1, trace, "smoke")
            names = tracked_names(bench, trace)
            if trace == 0:
                names = names + REPORTED[w["name"]]
            missing = [n for n in names
                       if res is None or n not in res["metrics"]
                       or f"  {n} " not in out]
            check(f"smoke {w['name']} trace={trace}: exit {code}, "
                  f"missing {missing or 'nothing'}",
                  code == 0 and res is not None and res["correct"]
                  and not missing)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
