"""Command-line driver: manifest-based batch runs and one-off calculations.

A run manifest is a JSON document declaring growth functions once (by id) and
a list of jobs referencing them:

    {
      "schema_version": 1,
      "seed": 7,
      "functions": {"ks0": {"kind": "kondratiev_streit", "beta": 0.0}},
      "jobs": [
        {"id": "verify-ks0", "kind": "verify", "function": "ks0", "n_max": 60}
      ]
    }

Job kinds, in the order of their runner table ``_JOB_RUNNERS``: ``eval``,
``conditions``, ``legendre``, ``lfn``, ``verify``, ``fock``, ``measures``
(whose ops are the keys of ``_MEASURE_RUNNERS``).  Stochastic jobs
(grey-noise Monte Carlo) need a seed, either per job or at the top level.
Exit codes: 0 all jobs pass, 1 at least one verification failure or job
error, 2 usage/configuration problems.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .growth import (
    GrowthFunctionSpec,
    ParameterError,
    check_conditions,
    mittag_leffler,
    spec_from_dict,
    spec_to_dict,
)
from .legendre import LFunctionEvaluator, l_function_wide, legendre_sequence, legendre_table
from .inequality_lab import (
    check_chain_order,
    summary_table,
    verify_function,
)
from .fock import ChaosSequence, dual_norm, exp_vector_norm, s_transform_1d
from .measures import (
    MEASURE_KINDS,
    MeasureSurrogate,
    fernique_product,
    grey_integrability,
    grey_sample,
    hida_condition,
    poisson_growth_integrand,
    poisson_integrability,
    poisson_sqrtlog_integrand,
)

SCHEMA_VERSION = 1
# The manifest behind ``growthcalc suite``, shipped as package data.
ACCEPTANCE_MANIFEST = Path(__file__).with_name("acceptance.json")

#: The runner of each job kind, called as ``(job, funcs, out_dir, top_seed,
#: default_tol)``.  Each entry names its runner, so a patched runner is seen.
_JOB_RUNNERS = {
    "eval": lambda job, funcs, out, seed, tol: _run_eval(job, funcs, tol),
    "conditions": lambda job, funcs, out, seed, tol: _run_conditions(job, funcs),
    "legendre": lambda job, funcs, out, seed, tol: _run_legendre(job, funcs, out),
    "lfn": lambda job, funcs, out, seed, tol: _run_lfn(job, funcs, tol),
    "verify": lambda job, funcs, out, seed, tol: _run_verify(job, funcs),
    "fock": lambda job, funcs, out, seed, tol: _run_fock(job, funcs, tol),
    "measures": lambda job, funcs, out, seed, tol: _run_measures(job, funcs, seed, tol),
}
_JOB_KINDS = tuple(_JOB_RUNNERS)

#: The runner of each ``measures`` op, called as ``(job, funcs, seed, default_tol)``.
_MEASURE_RUNNERS = {
    "fernique": lambda job, funcs, seed, tol: _fernique_op(job, tol),
    "poisson": lambda job, funcs, seed, tol: _poisson_op(job, funcs, tol),
    "grey_cf": lambda job, funcs, seed, tol: _grey_cf_op(job, seed),
    "grey_integrability": lambda job, funcs, seed, tol: _grey_integrability_op(job, seed),
    "hida": lambda job, funcs, seed, tol: _hida_op(job, funcs, seed),
}
_MEASURE_OPS = tuple(_MEASURE_RUNNERS)

_MEASURE_KEYS = {f.name for f in fields(MeasureSurrogate)}
_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class ManifestError(ValueError):
    """A run manifest fails schema validation; the message names the field."""


def _jsonable(obj):
    """Recursively convert report payloads to strict-JSON values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if obj == math.inf:
            return "inf"
        if obj == -math.inf:
            return "-inf"
    return obj


def _dump_json(payload: dict, path: Path) -> None:
    path.write_text(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )


# -- manifest loading and validation ------------------------------------------


def _fail(msg: str) -> None:
    raise ManifestError(msg)


def validate_manifest(manifest) -> None:
    """Schema-check a manifest; raises :class:`ManifestError` naming the
    offending field."""
    if not isinstance(manifest, dict):
        _fail("manifest must be a JSON object")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    functions = manifest.get("functions", {})
    if not isinstance(functions, dict):
        _fail("'functions' must map ids to growth-function specs")
    for fid, fdict in functions.items():
        if not _ID_RE.match(str(fid)):
            _fail(f"functions.{fid}: invalid id")
        try:
            spec_from_dict(fdict)
        except (ParameterError, TypeError) as exc:
            _fail(f"functions.{fid}: {exc}")
    top_seed = manifest.get("seed")
    if top_seed is not None and not isinstance(top_seed, int):
        _fail(f"seed must be an integer, got {top_seed!r}")
    jobs = manifest.get("jobs", [])
    if not isinstance(jobs, list):
        _fail("'jobs' must be a list")
    seen = set()
    for i, job in enumerate(jobs):
        where = f"jobs[{i}]"
        if not isinstance(job, dict):
            _fail(f"{where}: job must be an object")
        jid = job.get("id")
        if not isinstance(jid, str) or not _ID_RE.match(jid):
            _fail(f"{where}.id: missing or invalid job id")
        if jid in seen:
            _fail(f"{where}.id: duplicate job id {jid!r}")
        seen.add(jid)
        where = f"job {jid!r}"
        kind = job.get("kind")
        if kind not in _JOB_KINDS:
            _fail(f"{where}: unknown kind {kind!r} (allowed: {', '.join(_JOB_KINDS)})")
        refs = []
        if "function" in job:
            refs.append(job["function"])
        refs.extend(job.get("functions", []))
        for ref in refs:
            if ref not in functions:
                _fail(f"{where}: undeclared function {ref!r}")
        if kind == "eval":
            if "lam" in job and "t" not in job:
                _fail(f"{where}: Mittag-Leffler eval needs 't' values")
            if "lam" not in job and ("function" not in job or "r" not in job):
                _fail(f"{where}: eval needs either 'function' + 'r' or 'lam' + 't'")
        if kind in ("conditions", "legendre", "fock") and "function" not in job:
            _fail(f"{where}: missing 'function'")
        if kind == "lfn" and ("function" not in job or "r" not in job):
            _fail(f"{where}: lfn needs 'function' and 'r'")
        if kind == "verify" and "function" not in job and "functions" not in job:
            _fail(f"{where}: verify needs 'function' or 'functions'")
        if kind == "measures":
            op = job.get("op")
            if op not in _MEASURE_OPS:
                _fail(f"{where}: op must be one of {', '.join(_MEASURE_OPS)}")
            if op == "poisson" and job.get("integrand") == "growth" \
                    and "function" not in job:
                _fail(f"{where}: the growth integrand needs a 'function'")
            if op == "hida":
                measure = job.get("measure")
                if not isinstance(measure, dict) or "kind" not in measure:
                    _fail(f"{where}: hida needs a 'measure' object with a 'kind'")
                extra = set(measure) - _MEASURE_KEYS
                if extra:
                    _fail(f"{where}: unknown measure fields {sorted(extra)}")
                if "function" not in job:
                    _fail(f"{where}: hida needs a 'function'")
            stochastic = op in ("grey_cf", "grey_integrability") or (
                op == "hida" and job.get("measure", {}).get("kind") == "grey"
            )
            if stochastic:
                seed = job.get("seed", top_seed)
                if not isinstance(seed, int):
                    _fail(f"{where}: stochastic job needs an integer seed "
                          "(job-level or top-level)")


def load_manifest(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    validate_manifest(manifest)
    return manifest


# -- job runners ---------------------------------------------------------------


def emit_legendre_table(spec: GrowthFunctionSpec, n_max: int, path: str | Path) -> None:
    """Write the transform table for integer t = 0..n_max as deterministic CSV."""
    legendre_sequence(spec, n_max).write_csv(path)


def _within(value: float, expect: float, rel_tol: float) -> bool:
    return abs(value - expect) <= rel_tol * max(1.0, abs(expect))


def _expected_values(job: dict, key: str, values: list[float], default_tol: float) -> dict:
    expect = job.get(key)
    if expect is None:
        return {"status": "pass"}
    rel_tol = float(job.get("rel_tol", default_tol))
    if len(expect) != len(values):
        return {"status": "fail", "error": f"{key} length mismatch"}
    bad = [
        {"index": i, "value": v, "expect": e}
        for i, (v, e) in enumerate(zip(values, expect))
        if not _within(v, float(e), rel_tol)
    ]
    return {"status": "fail" if bad else "pass", "mismatches": bad, "rel_tol": rel_tol}


def _run_eval(job: dict, funcs: dict, default_tol: float) -> dict:
    if "lam" in job:
        lam = float(job["lam"])
        ts = [float(t) for t in job["t"]]
        values = [mittag_leffler(lam, t) for t in ts]
        check = _expected_values(job, "expect", values, default_tol)
        return {"lam": lam, "t": ts, "values": values, **check}
    spec = funcs[job["function"]]
    rs = [float(r) for r in job["r"]]
    values = [spec.log_u(r) for r in rs]
    check = _expected_values(job, "expect_log", values, default_tol)
    return {"function": spec.function_id, "r": rs, "log_u": values, **check}


def _run_conditions(job: dict, funcs: dict) -> dict:
    spec = funcs[job["function"]]
    report = check_conditions(spec)
    expect = job.get("expect")
    if expect:
        bad = {
            cond: {"expect": want, "got": report.status(cond)}
            for cond, want in expect.items()
            if report.status(cond) != want
        }
        status = "fail" if bad else "pass"
        return {"report": report.to_json_dict(), "status": status, "mismatches": bad}
    failed = [c for c, chk in report.checks.items() if chk.status == "fail"]
    return {"report": report.to_json_dict(),
            "status": "fail" if failed else "pass", "failed": failed}


def _run_legendre(job: dict, funcs: dict, out_dir: Path | None) -> dict:
    spec = funcs[job["function"]]
    if "t" in job:
        table = legendre_table(spec, np.asarray(job["t"], dtype=float))
    else:
        table = legendre_sequence(spec, int(job.get("n_max", 8)))
    payload: dict = {"function": spec.function_id, "n_points": table.n_points,
                     "status": "pass"}
    if "out" in job:
        path = Path(job["out"]) if out_dir is None else out_dir / job["out"]
        table.write_csv(path)
        payload["artifact"] = str(path)
    else:
        payload["csv"] = table.csv_text()
    return payload


def _run_lfn(job: dict, funcs: dict, default_tol: float) -> dict:
    spec = funcs[job["function"]]
    evaluator = LFunctionEvaluator.from_spec(spec, n_max=int(job.get("n_max", 400)))
    rs = [float(r) for r in job["r"]]
    values = l_function_wide(evaluator, np.asarray(rs)).tolist()
    check = _expected_values(job, "expect_log", values, default_tol)
    return {"function": spec.function_id, "r": rs, "log_l": values, **check}


def _run_verify(job: dict, funcs: dict) -> dict:
    if job.get("check") == "chain-order":
        specs = [funcs[fid] for fid in job["functions"]]
        report = check_chain_order(specs, n_max=int(job.get("n_max", 60)))
        return {"report": report.to_json_dict(), "status": report.status}
    spec = funcs[job["function"]]
    reports = verify_function(
        spec,
        n_max=int(job.get("n_max", 60)),
        checks=job.get("checks"),
        a=float(job.get("a", 2.0)),
    )
    status = "pass" if all(r.passed for r in reports) else "fail"
    return {
        "reports": [r.to_json_dict() for r in reports],
        "summary": summary_table(reports),
        "status": status,
    }


def _run_fock(job: dict, funcs: dict, default_tol: float) -> dict:
    spec = funcs[job["function"]]
    n_max = int(job.get("n_max", 200))
    rel_tol = float(job.get("rel_tol", min(default_tol, 1e-10)))
    evaluator = LFunctionEvaluator.from_spec(spec, n_max=n_max)
    rows = []
    ok = True
    for xi in job.get("xi", (0.5, 1.0, 2.0)):
        xi = float(xi)
        direct = dual_norm(ChaosSequence.exponential_vector(xi, n_max), evaluator.table)
        via_l = exp_vector_norm(xi, evaluator)
        rel = abs(direct - via_l) / via_l
        ok = ok and rel <= rel_tol
        rows.append({"xi": xi, "dual_norm": direct, "exp_vector_norm": via_l,
                     "rel_err": rel})
    s_rows = []
    for n in range(7):
        value = s_transform_1d(ChaosSequence.delta(n), 1.5)
        err = abs(value - 1.5**n)
        ok = ok and err <= 1e-8 * max(1.0, 1.5**n)
        s_rows.append({"n": n, "value": value, "target": 1.5**n, "abs_err": err})
    return {
        "function": spec.function_id,
        "exp_vector_identity": rows,
        "s_transform_monomials": s_rows,
        "rel_tol": rel_tol,
        "status": "pass" if ok else "fail",
    }


def _verdict(job: dict, **misses) -> str:
    """``fail`` if, for some key of ``misses`` that the job sets,
    ``misses[key](job[key])`` says the result misses that expectation."""
    missed = [key for key, miss in misses.items() if key in job and miss(job[key])]
    return "fail" if missed else "pass"


def _value_verdict(job: dict, finite: bool, value: float, default_tol: float) -> str:
    """An exact integrability result against ``expect`` ("finite" or not)
    and ``expect_value`` (within ``rel_tol``)."""
    return _verdict(
        job,
        expect=lambda want: (want == "finite") != finite,
        expect_value=lambda want: not _within(
            value, float(want), float(job.get("rel_tol", default_tol))),
    )


def _run_measures(job: dict, funcs: dict, top_seed: int | None, default_tol: float) -> dict:
    return _MEASURE_RUNNERS[job["op"]](job, funcs, job.get("seed", top_seed), default_tol)


def _fernique_op(job: dict, default_tol: float) -> dict:
    res = fernique_product(float(job["rho"]), float(job["q"]), float(job["c2"]))
    return {
        "value": res.value, "finite": res.finite,
        "boundary": res.boundary, "n_factors": res.n_factors,
        "status": _value_verdict(job, res.finite, res.value, default_tol),
    }


def _poisson_op(job: dict, funcs: dict, default_tol: float) -> dict:
    theta = float(job.get("theta", 1.0))
    w = float(job.get("w", 1.0))
    if job.get("integrand", "sqrtlog") == "growth":
        log_g = poisson_growth_integrand(funcs[job["function"]], w)
    else:
        log_g = poisson_sqrtlog_integrand(w)
    res = poisson_integrability(theta, log_g)
    return {
        "value": res.value, "finite": res.finite, "n_terms": res.n_terms,
        "tail_bound": res.tail_bound,
        "status": _value_verdict(job, res.finite, res.value, default_tol),
    }


def _grey_cf_op(job: dict, seed: int | None) -> dict:
    lam = float(job["lam"])
    n = int(job.get("n", 200_000))
    sigma_tol = float(job.get("sigma_tol", 3.0))
    x = grey_sample(lam, n, int(seed))
    rows = []
    ok = True
    for xi in job.get("xi", (0.5, 1.0, 2.0)):
        xi = float(xi)
        c = np.cos(xi * x)
        emp = float(c.mean())
        se = float(c.std(ddof=1) / math.sqrt(n))
        target = mittag_leffler(lam, xi * xi)
        dev = abs(emp - target) / se
        ok = ok and dev <= sigma_tol
        rows.append({"xi": xi, "empirical": emp, "target": target,
                     "stderr": se, "sigmas": dev})
    return {"lam": lam, "n": n, "seed": int(seed), "cf": rows,
            "sigma_tol": sigma_tol, "status": "pass" if ok else "fail"}


def _grey_integrability_op(job: dict, seed: int | None) -> dict:
    res = grey_integrability(
        float(job["lam"]), float(job["w"]),
        n=int(job.get("n", 10**6)), seed=int(seed),
    )
    status = _verdict(
        job,
        expect=lambda want: (want == "finite") != (res.stable and math.isfinite(res.value)),
        expect_value=lambda want: float(job.get("sigma_tol", 3.0)) * res.stderr
        < abs(res.value - float(want)),
    )
    return {
        "value": res.value, "stderr": res.stderr, "n": res.n, "seed": res.seed,
        "stable": res.stable, "top_share": res.top_share, "note": res.note,
        "status": status,
    }


def _hida_op(job: dict, funcs: dict, seed: int | None) -> dict:
    mdict = dict(job["measure"])
    if mdict.get("kind") == "grey":
        mdict.setdefault("seed", int(seed))
    surrogate = MeasureSurrogate(**mdict)
    report = hida_condition(surrogate, funcs[job["function"]], p=int(job.get("p", 0)))
    status = _verdict(
        job,
        expect_finite=lambda want: bool(want) != report.finite,
        expect_smallest_p=lambda want: report.smallest_finite_p != want,
    )
    return {"report": report.to_json_dict(), "status": status}


def _run_job(job: dict, funcs: dict, out_dir: Path | None,
             top_seed: int | None, default_tol: float) -> dict:
    kind = job["kind"]
    try:
        payload = _JOB_RUNNERS[kind](job, funcs, out_dir, top_seed, default_tol)
    except Exception as exc:  # noqa: BLE001 - job isolation
        payload = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    return {"id": job["id"], "kind": kind, **payload}


def run(manifest: dict, out_dir: str | Path | None = None,
        seed: int | None = None, tol: float | None = None,
        stream=None, print_payloads: bool = False) -> int:
    """Execute a validated manifest; returns the process exit code."""
    validate_manifest(manifest)
    stream = stream if stream is not None else sys.stdout
    if seed is not None:
        manifest = {**manifest, "seed": seed}
    default_tol = tol if tol is not None else 1e-9
    funcs = {fid: spec_from_dict(d) for fid, d in manifest.get("functions", {}).items()}
    job_list = manifest.get("jobs", [])
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    if not job_list:
        warnings.warn("manifest declares no jobs; nothing to do")
        if out_path is not None:
            _dump_json({"schema_version": SCHEMA_VERSION, "jobs": [],
                        "n_jobs": 0, "n_failed": 0}, out_path / "summary.json")
        return 0

    top_seed = manifest.get("seed")
    results = [_run_job(job, funcs, out_path, top_seed, default_tol) for job in job_list]

    failed = [res["id"] for res in results if res["status"] != "pass"]
    for res in results:
        if print_payloads:
            print(json.dumps(_jsonable(res), indent=2, sort_keys=True), file=stream)
        else:
            print(f"{res['id']:<32} {res['kind']:<12} {res['status']}", file=stream)
        if out_path is not None:
            _dump_json(res, out_path / f"job-{res['id']}.json")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": top_seed,
        "n_jobs": len(results),
        "n_failed": len(failed),
        "failed": failed,
        "jobs": [{"id": r["id"], "kind": r["kind"], "status": r["status"]}
                 for r in results],
    }
    if out_path is not None:
        _dump_json(summary, out_path / "summary.json")
    if failed:
        print(f"FAILED: {len(failed)}/{len(results)} jobs: {', '.join(failed)}",
              file=stream)
        return 1
    print(f"all {len(results)} jobs passed", file=stream)
    return 0


def _resolve_suite_manifest(config: str | None) -> dict:
    return load_manifest(ACCEPTANCE_MANIFEST if config is None else config)


# -- argument parsing ----------------------------------------------------------


def _spec_from_args(args, funcs: dict | None) -> GrowthFunctionSpec:
    if getattr(args, "spec", None):
        try:
            return spec_from_dict(json.loads(args.spec))
        except json.JSONDecodeError as exc:
            raise ManifestError(f"--spec is not valid JSON: {exc}") from exc
    name = getattr(args, "function", None)
    if name is None:
        raise ManifestError("give a function with --spec JSON or --function ID")
    if funcs is None or name not in funcs:
        raise ManifestError(
            f"--function {name!r} needs a --config manifest declaring it"
        )
    return funcs[name]


def _config_functions(args) -> dict | None:
    if args.config is None:
        return None
    manifest = load_manifest(args.config)
    return {fid: spec_from_dict(d) for fid, d in manifest.get("functions", {}).items()}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="manifest file declaring functions/jobs")
    common.add_argument("--out", help="directory for JSON/CSV artifacts")
    common.add_argument("--seed", type=int, help="override the manifest seed")
    common.add_argument("--tol", type=float, help="default relative tolerance")

    parser = argparse.ArgumentParser(
        prog="growthcalc",
        description="Growth-function transform calculus and inequality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate log u(r) or the Mittag-Leffler function")
    p.add_argument("--spec", help="inline growth-function spec as JSON")
    p.add_argument("--function", help="function id from --config")
    p.add_argument("--r", type=float, nargs="+", help="radii for log u")
    p.add_argument("--lam", type=float, help="Mittag-Leffler parameter in (0, 1]")
    p.add_argument("--t", type=float, nargs="+", help="Mittag-Leffler arguments")

    p = sub.add_parser("legendre", parents=[common],
                       help="tabulate the transform (t, log ell, r*)")
    p.add_argument("--spec")
    p.add_argument("--function")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--t", type=float, nargs="+", help="explicit t grid")
    p.add_argument("--csv", help="write the table to this CSV path")

    p = sub.add_parser("lfn", parents=[common], help="evaluate log L_u(r)")
    p.add_argument("--spec")
    p.add_argument("--function")
    p.add_argument("--r", type=float, nargs="+", required=True)
    p.add_argument("--n-max", type=int, default=400)

    p = sub.add_parser("conditions", parents=[common],
                       help="grid-check the growth/convexity conditions")
    p.add_argument("--spec")
    p.add_argument("--function")

    p = sub.add_parser("verify", parents=[common],
                       help="run the inequality battery for one function")
    p.add_argument("--spec")
    p.add_argument("--function")
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--checks", nargs="+", help="subset of check ids")

    p = sub.add_parser("fock", parents=[common],
                       help="exponential-vector identity and S-transform checks")
    p.add_argument("--spec")
    p.add_argument("--function")
    p.add_argument("--xi", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--n-max", type=int, default=200)

    p = sub.add_parser("measures", parents=[common],
                       help="measure integrability estimators")
    p.add_argument("--op", choices=_MEASURE_OPS, required=True)
    p.add_argument("--spec")
    p.add_argument("--function")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=0.1)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--n", type=int, default=200000)
    p.add_argument("--xi", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--integrand", choices=["sqrtlog", "growth"], default="sqrtlog")
    p.add_argument("--measure-kind", choices=MEASURE_KINDS,
                   help="measure family for --op hida")

    sub.add_parser("suite", parents=[common],
                   help="run the shipped acceptance manifest")
    return parser


def _one_off_manifest(args) -> dict:
    """Translate a single-shot subcommand invocation into a one-job manifest."""
    funcs = _config_functions(args)
    spec = None
    if args.command != "measures" or args.op in ("poisson", "hida"):
        needs_spec = args.command not in ("eval",) or args.lam is None
        if args.command == "measures":
            needs_spec = args.op == "hida" or (
                args.op == "poisson" and args.integrand == "growth"
            )
        if needs_spec:
            spec = _spec_from_args(args, funcs)

    functions = {}
    job: dict = {"id": args.command, "kind": args.command}
    if spec is not None:
        functions["f"] = spec_to_dict(spec)
        job["function"] = "f"

    if args.command == "eval":
        if args.lam is not None:
            if not args.t:
                raise ManifestError("eval --lam needs --t values")
            job.update(lam=args.lam, t=list(args.t))
        else:
            if not args.r:
                raise ManifestError("eval needs --r values (or --lam/--t)")
            job.update(r=list(args.r))
    elif args.command == "legendre":
        job["n_max"] = args.n_max
        if args.t:
            job["t"] = list(args.t)
        if args.csv:
            job["out"] = args.csv
    elif args.command == "lfn":
        job.update(r=list(args.r), n_max=args.n_max)
    elif args.command == "verify":
        job.update(n_max=args.n_max, a=args.a)
        if args.checks:
            job["checks"] = list(args.checks)
    elif args.command == "fock":
        job.update(xi=list(args.xi), n_max=args.n_max)
    elif args.command == "measures":
        job["op"] = args.op
        if args.op == "fernique":
            job.update(rho=args.rho, q=args.q, c2=args.c2)
        elif args.op == "poisson":
            job.update(theta=args.theta, w=args.w, integrand=args.integrand)
        elif args.op == "grey_cf":
            job.update(lam=args.lam, xi=list(args.xi), n=args.n)
        elif args.op == "grey_integrability":
            job.update(lam=args.lam, w=args.w, n=args.n)
        else:
            kind = args.measure_kind
            if kind is None:
                raise ManifestError("--op hida needs --measure-kind")
            measure: dict = {"kind": kind}
            if kind == "gaussian":
                measure.update(rho=args.rho, q=int(args.q))
            elif kind == "poisson":
                measure.update(theta=args.theta, w=args.w)
            else:
                measure.update(lam=args.lam, n=args.n)
            job.update(measure=measure, p=args.p)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "functions": functions,
        "jobs": [job],
    }
    if args.seed is not None:
        manifest["seed"] = args.seed
    elif args.command == "measures":
        manifest["seed"] = 0
    return manifest


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "suite":
            manifest = _resolve_suite_manifest(args.config)
        else:
            manifest = _one_off_manifest(args)
        return run(
            manifest,
            out_dir=args.out,
            seed=args.seed,
            tol=args.tol,
            print_payloads=args.command != "suite",
        )
    except (ManifestError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
