"""growthcalc benchmark: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload {suite,lseries-query,transform-build}
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src`` (it is not installed).  Every workload process runs with
one BLAS/OpenMP thread.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's context (versions, ``nproc``, seed, manifest hash, ``fail_ratio``,
the latencies ``op_p50_ms`` and ``op_tail_ms``).

``--trace 0`` reports the end-to-end metrics, measured for ``--seconds``.
Their times are read on a virtual clock that runs at a fixed reference speed
of the machine (``calib.py``); the context line also has the real times
(``raw_wall_s``, ``raw_setup_s``) and the machine's mean speed per process.
``--trace 1`` runs a fixed, seed-determined amount of work twice, untraced
and then traced, and reports the per-layer metrics of the traced process and
``bench.trace_overhead_ratio`` (traced over untraced wall time).

Exits 1 if any output check failed, 2 if the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "lseries-query", "transform-build")
#: Whole run budget; every child gets what is left of it as its timeout.
BUDGET_S = 170.0
#: Set-up is repeated in extra processes until each run has this many samples
#: (fewer where set-up is long and already steady).
SETUP_SAMPLES = {"suite": 5, "lseries-query": 3, "transform-build": 5}
#: Work per traced run: queries, transform ops (one pass is 7), suites.
TRACE_OPS = {"suite": 1, "lseries-query": 2000, "transform-build": 7}
#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """``(percentile, value, samples above it)``: the highest nearest-rank
    percentile that leaves at least ``beyond`` samples above it.  With too
    few samples it is the maximum, reported as the 100th percentile."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = n - beyond if n > beyond else n
    return 100.0 * rank / n, xs[rank - 1], n - rank


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.deadline = time.monotonic() + BUDGET_S

    def child(self, *extra: str) -> dict:
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--t0", repr(t0), *extra]
        timeout = self.deadline - t0
        if timeout <= 0:
            raise RuntimeError("benchmark budget exhausted")
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics for ``seconds`` of closed-loop work."""
    runs = []
    t_end = time.monotonic() + seconds
    if runner.workload == "suite":
        # A fresh interpreter per suite, as users run it: as many whole suites
        # as fit in ``seconds`` by the last one's time, and at least one.
        while not runs or time.monotonic() + last < t_end:
            t0 = time.monotonic()
            runs.append(runner.child())
            last = time.monotonic() - t0
    else:
        runs.append(runner.child("--seconds", repr(seconds)))
    setup_runs = list(runs)
    while len(setup_runs) < SETUP_SAMPLES[runner.workload]:
        setup_runs.append(runner.child("--setup-only"))
    setups = [r["setup_s"] for r in setup_runs]
    latencies = [x for r in runs for x in r["latencies"]]
    walls = [x for r in runs for x in r["walls"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    pct, tail, beyond = tail_percentile(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "ops_per_s": (len(latencies) / sum(walls), "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
    }
    info = {
        "processes": len(runs), "passes": len(walls), "ops": len(latencies),
        # Reported but not gated: see "Noise" in README.md.
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail, "op_tail_percentile": pct, "op_tail_beyond": beyond,
        "setup_samples": setups, "fail_ratio": failed / attempted if attempted else 1.0,
        "raw_wall_s": statistics.fmean(x for r in runs for x in r["raw_walls"]),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setup_runs),
        "machine_speed": [r["machine_speed"] for r in setup_runs],
        "versions": runs[0]["versions"],
        **runs[0]["info"],
    }
    info["errors"] = [e for r in runs for e in r["errors"]][:10]
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def trace(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics from one traced process, with the tracing overhead."""
    ops = str(TRACE_OPS[runner.workload])
    plain = runner.child("--ops", ops)
    spans = os.path.join(ROOT, ".perfbench", f"spans-{runner.workload}-seed{runner.seed}.tsv")
    traced = runner.child("--ops", ops, "--trace", "--spans", spans)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["bench.trace_overhead_ratio"] = (traced["total_s"] / plain["total_s"], "ratio")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    info = {
        "fail_ratio": failed / attempted if attempted else 1.0,
        "named_counts": {k: metrics[k][0] for k in tracing.NAMED_COUNTS},
        "missing_hooks": traced["missing_hooks"],
        "spans_file": os.path.relpath(spans, ROOT), "versions": traced["versions"],
        "errors": (plain["errors"] + traced["errors"])[:10],
        **traced["info"],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "growthcalc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="growthcalc benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    needed = [os.path.join("src", "growthcalc", "__init__.py"),
              os.path.join("manifests", "acceptance.json")]
    absent = [f for f in needed if not os.path.isfile(os.path.join(ROOT, f))]
    if absent:
        print(f"error: not a growthcalc checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        result, info = trace(runner) if args.trace else measure(runner, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "src_sha256": source_digest(), **info,
    }
    for err in info.get("errors", []):
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"context": context}, sort_keys=True))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
