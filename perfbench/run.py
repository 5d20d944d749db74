"""nangulate benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One run:

1. generates the workload's inputs from the seed in a separate process
   (so that generating them warms none of the timed process's caches);
2. with ``--trace 0``, runs passes -- fresh processes that set up and run
   every op of the inputs once -- until S seconds of ops are measured, with
   set-up-only processes in between until there are nine set-up samples;
   prints the end-to-end metrics;
3. with ``--trace 1``, runs one pass with span recorders around each
   layer's public functions and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run checks
its outputs (see README.md for what counts as a failed op).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The children's peak RSS comes from getrusage, whose high-water mark
# survives exec: this process imports neither numpy nor nangulate, so that
# its own footprint stays below every child's.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "nangulate" / "__init__.py"
OUT = BENCH / "out"

SETUP_SAMPLES = 9
# op_p90_ms is printed only when at least ten samples lie beyond it
P90_MIN_SAMPLES = 100
HASH_SEED = "0"
# stop starting passes after this much wall time, so that a run (at most
# one pass more, plus set-up probes) ends well inside 180 seconds
WALL_BUDGET_S = 80.0
CHILD_TIMEOUT_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def start_child(args, deadline):
    """Run one child to completion; returns (its JSON result line or None, wall start)."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(args[:3])} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), started


def environment():
    """Machine and software the numbers were measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "sympy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "absent"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "sympy": versions["sympy"],
        "git_commit": commit or "unknown (not a git checkout)",
        "pythonhashseed": HASH_SEED,
    }


def setup_probe(workload, inputs, deadline):
    """Set-up time of one fresh process that stops before the first op."""
    probe, started = start_child(["pass", "--workload", workload, "--inputs", str(inputs), "--setup-only"], deadline)
    return probe["first_op"] - started


def run_passes(workload, inputs, seconds, trace_path, deadline):
    """Passes until `seconds` of ops are measured; one traced pass with trace_path.

    Returns (passes, set-up samples).  Untraced, set-up-only probes are
    interleaved with the passes until there are SETUP_SAMPLES samples (one
    per pass or probe), spread over the run rather than bunched at its end:
    a shared host's speed can drift over seconds to minutes.
    """
    known_path = OUT / f"known-{workload}.json"
    passes = []
    setups = []
    wall0 = time.monotonic()
    while True:
        args = ["pass", "--workload", workload, "--inputs", str(inputs)]
        if passes:
            args += ["--known", str(known_path)]
        if trace_path:
            args += ["--trace", str(trace_path)]
        result, started = start_child(args, deadline)
        setups.append(result["first_op"] - started)
        passes.append(result)
        if len(passes) == 1:
            known_path.write_text(json.dumps(result["certs"]))
        if trace_path:
            return passes, setups
        timed = sum(p["timed_s"] for p in passes)
        done = timed >= seconds or time.monotonic() - wall0 > WALL_BUDGET_S
        while len(setups) < math.ceil(SETUP_SAMPLES * (1.0 if done else timed / seconds)):
            setups.append(setup_probe(workload, inputs, deadline))
        if done:
            return passes, setups


def check_passes(passes):
    """(attempted, failed, problems) over all passes."""
    attempted = sum(sum(p["ops"]) for p in passes)
    failed = sum(sum(p["failed"]) for p in passes)
    problems = []
    for i, p in enumerate(passes):
        problems.extend(f"pass {i + 1}: {note}" for note in p["notes"])
        if p["verdicts"] != passes[0]["verdicts"]:
            problems.append(f"pass {i + 1} gave other verdicts than pass 1 on the same inputs")
    return attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for perfbench/smoke.py")
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from the root of a nangulate checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    env = environment()
    (OUT / "env.json").write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")

    tag = f"{args.workload}-{args.seed}" + ("-tiny" if args.tiny else "")
    inputs = OUT / f"inputs-{tag}.json"
    gen = ["gen", "--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)]
    start_child(gen + (["--tiny"] if args.tiny else []), deadline)
    trace_path = OUT / f"spans-{args.workload}.npz" if args.trace else None
    passes, setups = run_passes(args.workload, inputs, args.seconds, trace_path, deadline)
    attempted, failed, problems = check_passes(passes)
    timed = sum(p["timed_s"] for p in passes)
    ops_per_s = attempted / timed
    latencies = [x for p in passes for x in p["latencies"]]
    verified = sum(p["verified"] for p in passes)

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(
        f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es), {attempted} ops "
        f"({len(latencies)} latency samples) in {timed:.3f} s of ops; "
        f"{verified} positive certificates verified"
    )
    print("pass ops seconds: " + " ".join(f"{p['timed_s']:.3f}" for p in passes))
    metrics = {}
    if args.trace:
        for name, (value, unit) in passes[0]["trace"].items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
        if metrics["trace.self_s_sum"]["value"] > metrics["trace.wall_s"]["value"]:
            problems.append("summed self times exceed the traced wall time")
        untraced = OUT / f"result-{tag}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["ops_per_s"]["value"]
            print(f"tracing overhead: ops_per_s {base:.4g} untraced, {ops_per_s:.4g} traced ({1 - ops_per_s / base:+.1%} lost)")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": max(p["rss_mb"] for p in passes), "unit": "MB"},
        }
        print(f"op_p50_ms: {1000 * statistics.median(latencies):.6g} ms ({len(latencies)} samples)")
        if len(latencies) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
            print(f"op_p90_ms: {1000 * p90:.6g} ms ({len(latencies)} samples)")
    print(f"error_rate: {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    saved = dict(result, verdicts=passes[0]["verdicts"])
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(saved) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
