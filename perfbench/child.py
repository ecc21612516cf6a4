"""One set-up or one pass of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --mode setup|pass
                               [--seed N] [--trace 0|1] [--quick] [--out DIR]

``run.py`` starts this once per sample, so every pass begins with a cold
package, as a user's process does.  The last line of standard output is a
JSON object with the sample.  The pass's wall and CPU time cover the
operations only, not the interpreter start, the import, the set-up or the
speed probe; untraced, they are scaled to the reference speed (see
reference.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import sys
import traceback
from time import perf_counter

import reference
import workloads

SETUP_SPEED_SAMPLES = 8


def _cpu_of(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children: the largest reaped worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def run_pass(inputs, seed: int, tracer=None, probe_dir: str | None = None) -> dict:
    """Perform every operation of the workload once and check its outputs.

    Untraced, a ``SpeedProbe`` samples the machine's speed while the
    operations run, in the pass's process and its pool workers; its own
    time is left out of ``raw_wall_s`` (but for the workers' samples,
    which delay the pool) and ``raw_cpu_s``, and ``wall_s`` and ``cpu_s``
    are those times scaled by the mean speed (see reference.py).  The
    traced pass is not scaled.  ``probe_dir`` holds the workers' samples.
    """
    ctx = workloads.setup(inputs)
    ops = workloads.ops(ctx, random.Random(seed))
    if tracer is not None:
        tracer.reset()
        memo0 = tracer.memo_info()
    if probe_dir is None:
        probe_dir = os.path.join(".perfbench-out", f"probe-{os.getpid()}")
    probe = reference.SpeedProbe(probe_dir) if tracer is None else contextlib.nullcontext()
    failed, wrong = 0, []
    with probe:
        kids0 = _cpu_of(resource.RUSAGE_CHILDREN)
        own0 = _cpu_of(resource.RUSAGE_SELF)
        t0 = perf_counter()
        for i, (label, op) in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            try:
                problems = op()
            except Exception:  # an operation that raises counts as failed; the pass goes on
                failed += 1
                print(f"operation {label!r} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            if problems:
                failed += 1
                wrong.extend(f"{label}: {p}" for p in problems)
        if tracer is None:
            probe.stop()
        wall = perf_counter() - t0
        children_cpu = _cpu_of(resource.RUSAGE_CHILDREN) - kids0
        cpu = _cpu_of(resource.RUSAGE_SELF) - own0 + children_cpu
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    sample = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": failed,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is None:
        sample["raw_wall_s"] = wall = wall - probe.wall
        sample["raw_cpu_s"] = cpu = cpu - probe.cpu - probe.worker_cpu
        sample["wall_s"] = wall * probe.scale()
        sample["cpu_s"] = cpu * probe.scale()
        sample["speed_samples"] = len(probe.speeds)
    else:
        from tracing import layer_metrics

        tracer.merge_workers()
        memo1 = tracer.memo_info()
        memo = (memo1[0] - memo0[0], memo1[1] - memo0[1])
        sample["layers"] = layer_metrics(tracer, ctx.obs, children_cpu, memo)
    return sample


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "pass"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--out", default=".perfbench-out", help="directory for trace files")
    args = ap.parse_args(argv)
    inputs = (workloads.QUICK if args.quick else workloads.WORKLOADS)[args.workload]

    if args.mode == "setup":
        t0 = perf_counter()
        workloads.setup(inputs)
        raw = perf_counter() - t0
        # scaled as a pass is, by the mean speed over samples taken right after
        reference.kernel()
        scaled = raw * sum(reference.speed() for _ in range(SETUP_SPEED_SAMPLES)) / SETUP_SPEED_SAMPLES
        print(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        os.makedirs(args.out, exist_ok=True)
        tracer = Tracer(args.out)
        tracer.install()
    sample = run_pass(inputs, args.seed, tracer, os.path.join(args.out, f"probe-{os.getpid()}"))
    if tracer is not None:
        path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "wall_s": sample["wall_s"]})
        sample["trace_file"] = path
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
