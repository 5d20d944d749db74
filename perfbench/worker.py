"""Child processes of the benchmark: input generation and timed passes.

    python3 perfbench/worker.py gen --workload W --seed N --out FILE [--tiny]
    python3 perfbench/worker.py pass --workload W --inputs FILE
        [--known FILE] [--trace FILE] [--setup-only]

``run.py`` starts these with PYTHONPATH pointing at the checkout's ``src``
and PYTHONHASHSEED pinned.  ``gen`` writes the workload's inputs as JSON.
``pass`` is one fresh process, as a CLI invocation is: it imports the
package, builds what the inputs describe, runs every op once with a clock
around each, then (untimed) checks every result and prints one JSON line.
Its set-up ends at the first timed op; run.py measures it from the moment
it started the process, on the shared monotonic clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import workloads


def cmd_gen(args):
    inputs = workloads.WORKLOADS[args.workload].generate(args.seed, args.tiny)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)


def cmd_pass(args):
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing  # imports numpy; untraced passes must not pay for it in setup_s and RSS

        tracer = tracing.Tracer()
        tracer.install()
    with open(args.inputs, encoding="utf-8") as fh:
        ops = workload.setup(json.load(fh))
    known = set()
    if args.known:
        with open(args.known, encoding="utf-8") as fh:
            known = set(json.load(fh))

    first_op = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op": first_op}))
        return
    clock = time.perf_counter
    values = []
    latencies = []
    loop_start = clock()
    for op in ops:
        t0 = clock()
        try:
            value = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            value = exc
        latencies.append(clock() - t0)
        values.append(value)
    timed_s = clock() - loop_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.stop()

    checks = []
    verified = 0
    for op, value in zip(ops, values):
        if isinstance(value, Exception):
            check = op.failed_check(value)
        else:
            try:
                check = op.check(value, known)
            except Exception as exc:
                check = op.failed_check(exc)
        if check.cert is not None and check.cert not in known:
            verified += 1
        checks.append(check)
    samples = [
        lat / c.ops if workload.per_instance and c.ops else lat for lat, c in zip(latencies, checks)
    ]
    result = {
        "first_op": first_op,
        "timed_s": timed_s,
        "latencies": samples,
        "rss_mb": rss_mb,
        "ops": [c.ops for c in checks],
        "failed": [c.failed for c in checks],
        "verdicts": [c.verdict for c in checks],
        "notes": [c.note for c in checks if c.note],
        "certs": [c.cert for c in checks if c.cert is not None and not c.failed],
        "verified": verified,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(args.trace)
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--tiny", action="store_true")
    run = sub.add_parser("pass")
    run.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    run.add_argument("--inputs", required=True)
    run.add_argument("--known", default="")
    run.add_argument("--trace", default="", help="write spans here and report per-layer metrics")
    run.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.cmd == "gen":
        cmd_gen(args)
    else:
        cmd_pass(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
