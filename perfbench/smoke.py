"""The benchmark's own smoke test, at tiny size.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs perfbench/run.py on tiny inputs, untraced and traced, and checks

* that the untraced run prints every end-to-end metric of BENCHMARK.json,
  with its unit, plus ``error_rate`` and ``op_p50_ms``, and ``op_p90_ms``
  exactly when it has at least 100 latency samples (as member-f3-local has
  even at tiny size); and that the traced run prints every per-layer metric;
* that error_rate is 0 and both runs call themselves correct;
* that the traced and the untraced run reached the same verdicts;
* that the summed self times of the traced run stay within its wall time.

It then checks that two different PYTHONHASHSEED values give byte-identical
suite reports, and that run.py refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds and 1 otherwise, naming each failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SEED = 1


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def printed_metrics(stdout):
    """name -> (value, unit) from the report lines."""
    out = {}
    for line in stdout.splitlines():
        m = re.fullmatch(r"([A-Za-z0-9_.\-]+): ([-+0-9.eE]+) (\S+)(?: \(.*\))?", line)
        if m:
            out[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


def check_run(workload, trace, declared, failures):
    proc = run_bench(workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failures.append(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        failures.append(f"{label}: correct={result['correct']} failed={result['failed']}\n{proc.stdout}")
    printed = printed_metrics(proc.stdout)
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failures.append(f"{label}: metric {m['name']} [{m['unit']}] missing from the result, got {got}")
        if m["name"] not in printed or printed[m["name"]][1] != m["unit"]:
            failures.append(f"{label}: metric {m['name']} [{m['unit']}] not printed with its unit")
    if not trace:
        if printed.get("error_rate") != (0.0, "ratio"):
            failures.append(f"{label}: error_rate printed as {printed.get('error_rate')}, expected 0 ratio")
        if printed.get("op_p50_ms", (0, ""))[1] != "ms":
            failures.append(f"{label}: op_p50_ms not printed in ms")
        samples = int(re.search(r"\((\d+) latency samples\)", proc.stdout).group(1))
        if ("op_p90_ms" in printed) != (samples >= 100) or printed.get("op_p90_ms", (0, "ms"))[1] != "ms":
            failures.append(f"{label}: op_p90_ms must be printed, in ms, exactly when there are >= 100 samples ({samples})")
    elif result["metrics"]["trace.self_s_sum"]["value"] > result["metrics"]["trace.wall_s"]["value"]:
        failures.append(f"{label}: summed self times exceed the traced wall time")
    saved = OUT / f"result-{workload}-{SEED}-tiny-trace{trace}.json"
    return json.loads(saved.read_text())["verdicts"]


def check_hash_seeds(failures):
    """Suite reports under two hash seeds must be byte-identical."""
    inputs = OUT / f"inputs-suite-f2-x3-{SEED}-tiny.json"
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "pass", "--workload", "suite-f2-x3", "--inputs", str(inputs)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            failures.append(f"suite under PYTHONHASHSEED={hash_seed}: exit code {proc.returncode}\n{proc.stderr}")
            return
        digests.append(json.loads(proc.stdout.strip().splitlines()[-1])["verdicts"])
    if digests[0] != digests[1]:
        failures.append(f"suite reports differ between PYTHONHASHSEED 0 and 1 (sha1 {digests[0]} vs {digests[1]})")


def check_bare_directory(failures):
    """Without the program beside it, run.py must fail and print no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run_bench("member-f3-local", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        untraced = check_run(w["name"], 0, spec["end_to_end"], failures)
        traced = check_run(w["name"], 1, spec["per_layer"], failures)
        if untraced is not None and traced is not None and untraced != traced:
            failures.append(f"{w['name']}: traced and untraced runs reached different verdicts")
        print(f"{w['name']}: checked", flush=True)
    check_hash_seeds(failures)
    check_bare_directory(failures)
    for f in failures:
        print(f"FAIL: {f}")
    print("smoke test " + ("passed" if not failures else f"failed ({len(failures)} failures)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
