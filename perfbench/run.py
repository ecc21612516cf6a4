"""Benchmark of q2quartic: the three oracles and the closed-form sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it times set-up in
fresh interpreters, then runs passes over the workload, each in a fresh
interpreter, until S seconds have gone, and reports the medians of the
end-to-end metrics.  Times are scaled to the speed of a fixed reference
kernel sampled while the operations run (see reference.py), because the
speed of a shared host drifts by more than the bounds.  With ``--trace 1``
it runs one untraced pass and one traced pass and reports the per-layer
metrics and the tracing overhead.
Every pass checks its outputs against independent references.  The last
line of standard output is one JSON object with the result; the exit code
is not 0, and no result is printed, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 11
DEADLINE_S = 170  # the whole run, children included


class BenchError(RuntimeError):
    pass


def _child(deadline, *args) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports from bytecode caches, as users do
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(OUT), *map(str, args)]
    # own session, so a timeout can stop the child's pool workers too
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args)} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited with {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{' '.join(args)} printed no result") from exc


def _measure(workload, seed, seconds, deadline):
    _child(deadline, "--workload", workload, "--mode", "setup")  # writes bytecode caches
    setups = [
        _child(deadline, "--workload", workload, "--mode", "setup")["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    passes = []
    start = monotonic()
    while not passes or monotonic() - start < seconds:
        passes.append(
            _child(deadline, "--workload", workload, "--mode", "pass", "--seed", seed * 1000 + len(passes))
        )
    for key in ("wall_s", "raw_wall_s"):
        print(f"pass {key}: " + " ".join(f"{p[key]:.3f}" for p in passes), file=sys.stderr)
    med = lambda key: statistics.median(p[key] for p in passes)
    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    return passes, metrics


def _trace(workload, seed, deadline):
    plain = _child(deadline, "--workload", workload, "--mode", "pass", "--seed", seed * 1000)
    traced = _child(
        deadline, "--workload", workload, "--mode", "pass", "--seed", seed * 1000, "--trace", 1
    )
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["raw_wall_s"], "s")
    print(f"trace written to {traced['trace_file']}", file=sys.stderr)
    return [plain, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="orders each pass's operations")
    ap.add_argument("--seconds", type=float, required=True, help="how long to keep starting passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "q2quartic" / "__init__.py").is_file():
        print(f"error: no q2quartic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = monotonic() + DEADLINE_S
    try:
        if args.trace:
            passes, metrics = _trace(args.workload, args.seed, deadline)
        else:
            passes, metrics = _measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<14} {name:<36} {value:>14.6g} {unit}")
    result = {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
