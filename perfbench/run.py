#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source and runs workloads.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1             # every workload, per-layer metrics
    python3 perfbench/run.py --workload lifetime_nftl --seed 7 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; spans of traced runs go to <build>/spans. Each metric is printed as
"<workload> <metric> <value> <unit>"; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
status is 0 only when every output check passed. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
BINARY = "swl_perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_PATH}: {e}")


def build(root, build_dir):
    """Configures the repository's CMake project with the benchmark attached
    (perfbench/CMakeLists.txt as project include) and builds only the benchmark binary."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        fail("no CMakeLists.txt in the current directory; run from the repository root")
    log_path = os.path.join(build_dir, "perfbench-build.log")
    configure = [
        "cmake", "-S", root, "-B", build_dir,
        "-DCMAKE_BUILD_TYPE=Release",
        "-DSWL_BUILD_TESTS=OFF", "-DSWL_BUILD_BENCHES=OFF", "-DSWL_BUILD_EXAMPLES=OFF",
        "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "CMakeLists.txt"),
    ]
    compile_ = ["cmake", "--build", build_dir, "--target", BINARY,
                "-j", str(os.cpu_count() or 1)]
    for attempt in range(2):
        os.makedirs(build_dir, exist_ok=True)
        with open(log_path, "w") as log:
            ok = all(subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode == 0
                     for step in (configure, compile_))
        if ok:
            return os.path.join(build_dir, BINARY)
        if attempt == 0 and os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            # A cache from another source tree or an older configuration: start clean once.
            shutil.rmtree(build_dir)
            continue
    with open(log_path) as log:
        tail = log.read()[-4000:]
    fail(f"build failed (log: {log_path}):\n{tail}")


def check(workload, trace, result, spec):
    """Returns a list of problems with the binary's JSON result."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"unexpected result keys {sorted(result)}"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    known = {m["name"]: m for m in wanted}
    for name in metrics:
        if name not in known:
            problems.append(f"metric {name} is not listed in BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if trace:
                # A layer the workload does not run reports 0 (see README.md).
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
                continue
            problems.append(f"metric {m['name']} missing")
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')}, expected {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"end-to-end metric {m['name']} is {value}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("nothing attempted")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("bad failed count")
    return problems


def run_one(binary, build_dir, workload, seed, seconds, trace, spec):
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--spans-dir", spans_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: {BINARY} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        # Also reached when this script is terminated: never leave the binary running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: {BINARY} exited with {proc.returncode} and no result", 1)
    problems = check(workload, trace, result, spec)
    if proc.returncode != 0:
        problems.append(f"{BINARY} exited with status {proc.returncode}")
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
    return result


def main():
    # Turn SIGTERM into SystemExit so that run_one's cleanup stops the binary.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)

    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        r = run_one(binary, build_dir, w, args.seed, args.seconds, bool(args.trace), spec)
        results[w] = r
        for name, m in r["metrics"].items():
            print(f"{w} {name} {m['value']:.6g} {m['unit']}")
        print(f"{w} correct={str(r['correct']).lower()} attempted={r['attempted']} "
              f"failed={r['failed']}")

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
