#!/usr/bin/env python3
"""pdmm's end-to-end benchmark.

    python3 pdmm_perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny]

Run from the root of a source checkout. Builds the pdmm library from
src/ together with the benchmark program (Release, into
$CARGO_TARGET_DIR/pdmm_perf, default .bench_build/pdmm_perf), runs one
workload, checks its outputs, prints the metrics as a table and, as the
last line of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a traced run. --tiny runs every phase at a small size
in a few seconds. Journals and checkpoints go to a per-run directory under
the build directory, removed on exit. Any failed correctness check, build
failure or metric-set mismatch exits nonzero without printing a result.
See METHODOLOGY.md.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_churn", "serve_paced")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then rebuilds incrementally. Returns the binary."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + gen,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--parallel", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "pdmm_perf")


def expected_metrics(trace):
    """(name -> unit) for this mode, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def parse(stdout):
    """Metric lines ("M"), figures that are not metrics ("I") and the
    result line ("R") of the benchmark program."""
    metrics, infos, result = {}, {}, None
    for line in stdout.splitlines():
        parts = line.split("\t")
        if parts[0] in ("M", "I") and len(parts) == 5:
            kind, name, value, unit, note = parts
            into = metrics if kind == "M" else infos
            if name in into:
                raise ValueError(f"{name} printed twice")
            into[name] = (float(value), unit, note)
        elif parts[0] == "R" and len(parts) == 4:
            result = (parts[1] == "1", int(parts[2]), int(parts[3]))
    if result is None:
        raise ValueError("no result line")
    return metrics, infos, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "pdmm_perf")
    try:
        binary = build(build_dir)
        expected = expected_metrics(args.trace)
    except (subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        log(f"set-up failed: {e}")
        return 1

    tmp = os.path.join(target, f"run-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1
    try:
        metrics, infos, (correct, attempted, failed) = parse(proc.stdout)
    except ValueError as e:
        log(f"unreadable benchmark output: {e}")
        return 1

    printed = {name: unit for name, (_, unit, _) in metrics.items()}
    if printed != expected:
        log(f"metric set differs from BENCHMARK.json: printed "
            f"{sorted(set(printed.items()) ^ set(expected.items()))}")
        return 1
    if not all(math.isfinite(v) for v, _, _ in metrics.values()):
        log("a metric is not a finite number")
        return 1
    if not correct or attempted < 1:
        log("correctness check failed")
        return 1

    for name, (value, unit, note) in list(metrics.items()) + list(infos.items()):
        print(f"{name:36s} {value:>16.6g} {unit:10s} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
