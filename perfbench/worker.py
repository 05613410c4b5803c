"""One benchmark process: set up a workload, run it, check every output.

Started by ``run.py`` with a pinned environment (one BLAS/OpenMP thread,
``PYTHONPATH`` pointing at the checkout's ``src``).  Prints one JSON object
as its last line of standard output.

    python3 perfbench/worker.py --workload lseries-query --seed 1 --t0 <monotonic>
        [--seconds S | --ops N] [--setup-only] [--trace] [--spans PATH]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` includes interpreter start-up and imports.

Untraced, every reported time (``setup_s``, pass walls, op latencies) is read
on ``calib.VirtualClock``: wall time rescaled to a fixed reference speed of
the machine, so that the machine's speed swings cancel out.  The real pass
times are reported too, as ``raw_walls``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REL_TOL = 1e-9
#: The minimiser of a flat function is only resolved to about sqrt(eps) by a
#: search on function values, so r* is checked more loosely than log ell.
R_STAR_REL_TOL = 1e-6

# lseries-query: the verification battery's radius range, on a fixed log grid
# so every query has a stored reference value.
LSERIES_KINDS = ("ks0", "ks025", "ks05", "ks075", "exp1", "g2", "g3")
LSERIES_R_MIN, LSERIES_R_MAX, LSERIES_GRID = 1e-6, 1.8e9, 2048
LSERIES_BATCH = 500
#: Radius at which set-up builds each continuous-ell spline (a Laplace-rule query).
LSERIES_WARM_R = 1e8

# transform-build: the battery's real-t grid, and the table index whose
# minimiser r* gives a radius where table and Laplace rules both hold.
T_REAL = (0.5, 50.01, 0.25)
BOTH_RULES_INDEX = 400
BIDUALS_PER_OP = 3
#: Bidual radii are log-uniform on [1e-2, 1e5]: the supremum sits at t = c r
#: for exponential(c), and c r must stay below bidual's default t_cap of 4e6.
BIDUAL_R = (1e-2, 1e5)


def lseries_grid() -> list[float]:
    lo, hi = math.log(LSERIES_R_MIN), math.log(LSERIES_R_MAX)
    step = (hi - lo) / (LSERIES_GRID - 1)
    return [math.exp(lo + i * step) for i in range(LSERIES_GRID)]


def lseries_specs(gc) -> dict:
    return {
        "ks0": gc.kondratiev_streit(0.0),
        "ks025": gc.kondratiev_streit(0.25),
        "ks05": gc.kondratiev_streit(0.5),
        "ks075": gc.kondratiev_streit(0.75),
        "exp1": gc.exponential(1.0),
        "g2": gc.iterated_exp_sqrt(2),
        "g3": gc.iterated_exp_sqrt(3),
    }


def within(value: float, expect: float, rel_tol: float = REL_TOL) -> bool:
    return abs(value - expect) <= rel_tol * max(1.0, abs(expect))


class Result:
    """What one process measured: per-op latencies, per-pass walls, failures."""

    def __init__(self, clock=time.perf_counter, warmup: int = 0):
        #: The clock every op and pass is timed on.
        self.clock = clock
        #: Leading passes that are run and checked but not timed.
        self.warmup = warmup
        self.latencies: list[float] = []
        self.raw_walls: list[float] = []
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.info: dict = {}

    def more(self, n_done: int, deadline: float | None, n_ops: int | None) -> bool:
        """Whether to start another pass: until ``n_ops`` ops are done, or
        else until ``deadline`` (at least one pass either way)."""
        if n_ops is not None:
            return n_done < n_ops
        return not self.walls or time.perf_counter() < deadline

    def timed_pass(self):
        """Context manager timing one pass on ``clock`` and in real time."""
        return _Pass(self)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


class _Pass:
    def __init__(self, res: Result):
        self.res = res

    def __enter__(self):
        self.n0 = len(self.res.latencies)
        self.t0, self.r0 = self.res.clock(), time.perf_counter()

    def __exit__(self, *exc):
        res = self.res
        if res.warmup > 0:
            res.warmup -= 1
            del res.latencies[self.n0:]
            return
        res.walls.append(res.clock() - self.t0)
        res.raw_walls.append(time.perf_counter() - self.r0)


# -- lseries-query -------------------------------------------------------------


class LSeriesQuery:
    """Warm evaluators; a seeded stream of ``l_function_wide`` queries."""

    def __init__(self, seed: int):
        import growthcalc as gc

        self.gc = gc
        self.evaluators = {}
        for kind, spec in lseries_specs(gc).items():
            self.evaluators[kind] = gc.LFunctionEvaluator.from_spec(spec)
            gc.l_function_integral(spec, LSERIES_WARM_R)
        self.grid = lseries_grid()
        self.rng = random.Random(seed)

    def run(self, res: Result, deadline: float | None, n_ops: int | None, tracer) -> list:
        wide = self.gc.l_function_wide
        clock = res.clock
        done = []
        while res.more(len(done), deadline, n_ops):
            batch = [(LSERIES_KINDS[self.rng.randrange(len(LSERIES_KINDS))],
                      self.rng.randrange(LSERIES_GRID)) for _ in range(LSERIES_BATCH)]
            with res.timed_pass():
                for kind, i in batch:
                    if tracer is not None:
                        tracer.op += 1
                    ev = self.evaluators[kind]
                    t0 = clock()
                    try:
                        value = wide(ev, self.grid[i])
                    except Exception as exc:  # noqa: BLE001 - counted as a failed op
                        value = exc
                    res.latencies.append(clock() - t0)
                    done.append((kind, i, value))
        return done

    def check(self, res: Result, done) -> None:
        with open(os.path.join(HERE, "reference", "lseries.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        laplace = 0
        for kind, i, value in done:
            res.attempted += 1
            expect = reference["log_l"][kind][i]
            if isinstance(value, Exception):
                res.fail(f"{kind} r={self.grid[i]!r}: {type(value).__name__}: {value}")
            elif not within(value, expect):
                res.fail(f"{kind} r={self.grid[i]!r}: log L {value!r} != {expect!r}")
            laplace += reference["laplace"][kind][i] == "1"
        res.info["laplace_share"] = laplace / len(done)


# -- transform-build -----------------------------------------------------------


class TransformBuild:
    """A seeded stream of fresh specs, each built into every transform table.

    A pass is two Kondratiev-Streit and two exponential specs with fresh
    parameters plus g1, g2 and g3, in seeded order, so every pass does the
    same mix of work.
    """

    def __init__(self, seed: int):
        import numpy as np

        import growthcalc as gc

        self.gc = gc
        self.np = np
        self.rng = random.Random(seed)
        self.t_real = np.arange(*T_REAL)

    def next_pass(self) -> list[tuple]:
        rng = self.rng
        ops = []
        for _ in range(2):
            ops.append(("ks", self.gc.kondratiev_streit(rng.uniform(0.0, 0.99))))
            ops.append(("exp", self.gc.exponential(
                math.exp(rng.uniform(math.log(0.1), math.log(10.0))))))
        ops += [("g", self.gc.iterated_exp_sqrt(k)) for k in (1, 2, 3)]
        rng.shuffle(ops)
        lo, hi = (math.log(r) for r in BIDUAL_R)
        return [(kind, spec, [math.exp(rng.uniform(lo, hi)) for _ in range(BIDUALS_PER_OP)])
                for kind, spec in ops]

    def run(self, res: Result, deadline: float | None, n_ops: int | None, tracer) -> list:
        gc = self.gc
        clock = res.clock
        done = []
        while res.more(len(done), deadline, n_ops):
            with res.timed_pass():
                for kind, spec, radii in self.next_pass():
                    if tracer is not None:
                        tracer.op += 1
                    t0 = clock()
                    try:
                        ev = gc.LFunctionEvaluator.from_spec(spec)
                        table = gc.legendre_table(spec, self.t_real)
                        r_mid = float(ev.table.r_star[BOTH_RULES_INDEX])
                        integral = gc.l_function_integral(spec, r_mid)
                        biduals = [gc.bidual(spec, r) for r in radii]
                        out = (ev, table, r_mid, integral, biduals)
                    except Exception as exc:  # noqa: BLE001 - counted as a failed op
                        out = exc
                    res.latencies.append(clock() - t0)
                    done.append((kind, spec, radii, out))
        return done

    def check(self, res: Result, done) -> None:
        for op in done:
            res.attempted += 1
            try:
                problems = self.check_op(*op)
            except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                res.fail(f"{op[1].function_id}: " + "; ".join(problems[:3]))

    def check_op(self, kind, spec, radii, out) -> list[str]:
        if isinstance(out, Exception):
            return [f"{type(out).__name__}: {out}"]
        np = self.np
        ev, table, r_mid, integral, biduals = out
        problems = []
        for name, tab in (("n-table", ev.table), ("t-table", table)):
            problems += [f"{name}: {p}" for p in self.check_table(kind, spec, tab)]
        table_rule = self.gc.l_function(ev, r_mid)
        if not within(integral, table_rule):
            problems.append(f"Laplace {integral!r} != table rule {table_rule!r} at r={r_mid!r}")
        for r, b in zip(radii, biduals):
            if not within(b, spec.log_u(r)):
                problems.append(f"bidual({r!r}) {b!r} != log u {spec.log_u(r)!r}")
        if np.any(np.diff(ev.table.t) != 1.0) or ev.table.n_points != 1201:
            problems.append("n-table is not the integer grid 0..1200")
        return problems

    def check_table(self, kind, spec, tab) -> list[str]:
        np = self.np
        t, log_ell, r_star = tab.t, tab.log_ell, tab.r_star
        pos = t > 0.0
        problems = []
        if not np.all(pos):
            if not (log_ell[0] == 0.0 and r_star[0] == 0.0):
                problems.append(f"t=0 row ({log_ell[0]!r}, {r_star[0]!r}) != (0, 0)")
        t, log_ell, r_star = t[pos], log_ell[pos], r_star[pos]
        if kind == "ks":
            b1 = 1.0 + spec.beta
            want_r, want_l = t ** b1, b1 * t * (1.0 - np.log(t))
        elif kind == "exp":
            want_r, want_l = t / spec.c, t - t * np.log(t / spec.c)
        else:
            # No closed form: the row must be the value at its own minimiser,
            # and no nearby radius may give a smaller value.
            want_r = r_star
            want_l = np.array([spec.log_u(r) for r in r_star]) - t * np.log(r_star)
            for f in (1.0 - 1e-3, 1.0 + 1e-3):
                near = np.array([spec.log_u(f * r) for r in r_star]) - t * np.log(f * r_star)
                if np.any(near < log_ell - REL_TOL * np.maximum(1.0, np.abs(log_ell))):
                    problems.append(f"a radius {f:g} r* gives a smaller value")
        bad_l = np.abs(log_ell - want_l) > REL_TOL * np.maximum(1.0, np.abs(want_l))
        bad_r = np.abs(r_star - want_r) > R_STAR_REL_TOL * np.maximum(1.0, np.abs(want_r))
        for what, bad, got, want in (("log ell", bad_l, log_ell, want_l),
                                     ("r*", bad_r, r_star, want_r)):
            if np.any(bad):
                i = int(np.flatnonzero(bad)[0])
                problems.append(f"{what} at t={t[i]!r}: {got[i]!r} != {want[i]!r}")
        return problems


# -- suite ---------------------------------------------------------------------


class Suite:
    """One ``growthcalc suite`` run on the shipped manifest, in this process."""

    def __init__(self, seed: int):
        import hashlib

        from growthcalc import cli

        self.cli = cli
        self.config = os.path.join(ROOT, "manifests", "acceptance.json")
        with open(self.config, "rb") as fh:
            self.manifest_sha256 = hashlib.sha256(fh.read()).hexdigest()
        self.n_jobs = len(cli.load_manifest(self.config)["jobs"])

    def run(self, res: Result, deadline: float | None, n_ops: int | None, tracer) -> tuple:
        """Exactly one suite: each suite needs a fresh interpreter."""
        cli = self.cli
        clock = res.clock
        run_job = cli._run_job

        def timed_job(job, *args, **kwargs):
            t0 = clock()
            try:
                return run_job(job, *args, **kwargs)
            finally:
                res.latencies.append(clock() - t0)

        cli._run_job = timed_job
        out_dir = os.path.join(ROOT, ".perfbench", f"suite-out-{os.getpid()}")
        shutil.rmtree(out_dir, ignore_errors=True)
        log = io.StringIO()
        try:
            with res.timed_pass(), contextlib.redirect_stdout(log):
                code = cli.main(["suite", "--config", self.config, "--out", out_dir])
        finally:
            cli._run_job = run_job
        return code, log.getvalue(), out_dir

    def check(self, res: Result, done) -> None:
        import compare

        code, log, out_dir = done
        res.info["manifest_sha256"] = self.manifest_sha256
        res.info["exit_code"] = code
        try:
            with open(os.path.join(HERE, "reference", "suite.json"), encoding="utf-8") as fh:
                reference = json.load(fh)["files"]
            bad = compare.failed_jobs(compare.read_artifacts(out_dir), reference)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        res.attempted += self.n_jobs
        for who, diffs in sorted(bad.items()):
            res.fail(f"{who}: " + "; ".join(diffs[:3]))
        if code != 0 and not bad:
            res.fail(f"growthcalc suite exited with {code}:\n{log[-2000:]}")
        res.failed = min(res.failed, res.attempted)


WORKLOADS = {"suite": Suite, "lseries-query": LSeriesQuery, "transform-build": TransformBuild}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--ops", type=int)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="write the traced spans to this file")
    args = p.parse_args(argv)

    # Untraced, the virtual clock starts as early as it can: interpreter start
    # and the numpy import before it are scaled at its first speed.
    clock, vclock = time.perf_counter, None
    if not args.trace:
        import calib

        vclock = calib.VirtualClock()
    started_s = time.monotonic() - args.t0
    if vclock is not None:
        vclock.start()
        clock = vclock.now
        started_s = vclock.scale(started_s)
    t_setup = clock()

    import numpy
    import scipy

    import growthcalc

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(growthcalc.__file__).startswith(src + os.sep):
        raise SystemExit(f"growthcalc was imported from {growthcalc.__file__}, not {src}")
    tracer = None
    missing: list[str] = []
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracing.install_layer_hooks(tracer)
    workload = WORKLOADS[args.workload](args.seed)
    out = {
        "setup_s": started_s + clock() - t_setup,
        "raw_setup_s": time.monotonic() - args.t0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if not args.setup_only:
        # A timed run starts with one warm-up pass; a suite is cold by design.
        warmup = int(args.seconds is not None and args.workload != "suite")
        res = Result(clock, warmup)
        deadline = time.perf_counter() + args.seconds if args.seconds is not None else None
        done = workload.run(res, deadline, args.ops, tracer)
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracing.layer_metrics(tracer)
            out["missing_hooks"] = missing
            if args.spans:
                tracer.write_spans(args.spans)
    if vclock is not None:
        vclock.stop()
        out["machine_speed"] = vclock.speed()
    if not args.setup_only:
        workload.check(res, done)
        out.update(
            latencies=res.latencies, walls=res.walls, raw_walls=res.raw_walls,
            attempted=res.attempted, failed=res.failed, errors=res.errors, info=res.info,
            total_s=out["setup_s"] + sum(res.walls),
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
