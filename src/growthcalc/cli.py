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

Job kinds, in the order of their table ``_JOB_KINDS``: ``eval``,
``legendre``, ``lfn``, ``conditions``, ``verify``, ``fock``, ``measures``
(whose ops are the keys of ``_MEASURE_OPS``).  Stochastic jobs
(grey-noise Monte Carlo) need a seed, either per job or at the top level.
Each one-off subcommand runs a one-job manifest holding the flags given
(``_one_off_manifest``), so ``validate_manifest`` alone decides what a job
needs.
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
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .growth import (
    ParameterError,
    _is_real,
    check_conditions,
    mittag_leffler,
    spec_from_dict,
)
from .legendre import (
    LFunctionEvaluator,
    l_function,
    l_function_wide,
    legendre_sequence,
    legendre_table,
)
from .inequality_lab import (
    CHECK_IDS,
    check_chain_order,
    summary_table,
    verify_function,
)
from .fock import ChaosSequence, log_dual_norm, s_transform_1d
from .measures import (
    MEASURE_KINDS,
    MeasureSurrogate,
    _is_whole,
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


class _Job(NamedTuple):
    """A job kind or ``measures`` op.  ``run(job, funcs, out_dir, seed,
    default_tol)`` calls its runner by name, so a patched runner is seen.
    ``required`` are the fields it reads without a default; ``flags`` maps
    each field its one-off subcommand copies from the flag of that name to
    the flag's help (an unset flag sets nothing, so the runner's default
    applies); ``help`` is a kind's subcommand help."""

    run: Callable
    required: tuple[str, ...]
    flags: dict[str, str | None]
    help: str | None = None


#: Each ``measures`` op, in the order of ``--op``'s choices.
_MEASURE_OPS = {
    "fernique": _Job(lambda job, funcs, out, seed, tol: _fernique_op(job, tol),
                     ("rho", "q", "c2"), dict.fromkeys(("rho", "q", "c2"))),
    "poisson": _Job(lambda job, funcs, out, seed, tol: _poisson_op(job, funcs, tol),
                    (), dict.fromkeys(("theta", "w", "integrand"))),
    "grey_cf": _Job(lambda job, funcs, out, seed, tol: _grey_cf_op(job, seed),
                    ("lam",), dict.fromkeys(("lam", "xi", "n"))),
    "grey_integrability": _Job(
        lambda job, funcs, out, seed, tol: _grey_integrability_op(job, seed),
        ("lam", "w"), dict.fromkeys(("lam", "w", "n"))),
    "hida": _Job(lambda job, funcs, out, seed, tol: _hida_op(job, funcs, seed),
                 ("function",), {"p": None}),
}
#: The ``measure`` fields a hida one-off copies for each ``--measure-kind``.
_HIDA_MEASURE_FIELDS = {"gaussian": ("rho", "q"), "poisson": ("theta", "w"),
                        "grey": ("lam", "n")}

#: Each job kind, in the order of its subcommand.  (A chain-order verify job
#: reads ``functions`` in place of ``function``.)
_JOB_KINDS = {
    "eval": _Job(lambda job, funcs, out, seed, tol: _run_eval(job, funcs, tol), (),
                 {"r": "radii for log u", "lam": "Mittag-Leffler parameter in (0, 1]",
                  "t": "Mittag-Leffler arguments"},
                 "evaluate log u(r) or the Mittag-Leffler function"),
    "legendre": _Job(lambda job, funcs, out, seed, tol: _run_legendre(job, funcs, out),
                     ("function",), {"n_max": None, "t": "explicit t grid"},
                     "tabulate the transform (t, log ell, r*)"),
    "lfn": _Job(lambda job, funcs, out, seed, tol: _run_lfn(job, funcs, tol),
                ("function", "r"), dict.fromkeys(("r", "n_max")), "evaluate log L_u(r)"),
    "conditions": _Job(lambda job, funcs, out, seed, tol: _run_conditions(job, funcs),
                       ("function",), {}, "grid-check the growth/convexity conditions"),
    "verify": _Job(lambda job, funcs, out, seed, tol: _run_verify(job, funcs),
                   ("function",), {"n_max": None, "a": None, "checks": "subset of check ids"},
                   "run the inequality battery for one function"),
    "fock": _Job(lambda job, funcs, out, seed, tol: _run_fock(job, funcs, tol),
                 ("function",), dict.fromkeys(("xi", "n_max")),
                 "exponential-vector identity and S-transform checks"),
    "measures": _Job(lambda job, funcs, out, seed, tol:
                     _MEASURE_OPS[job["op"]].run(job, funcs, out, seed, tol),
                     (), {"op": None}, "measure integrability estimators"),
}


class _Field(NamedTuple):
    """A job field's wording, its test, and its flag's argparse arguments."""

    what: str
    ok: Callable[[object], bool]
    flag: dict = {}


def _one_of(choices: tuple) -> _Field:
    return _Field(f"one of {', '.join(choices)}", lambda v: v in choices, {"choices": choices})


_INTEGER = _Field("an integer", _is_whole, {"type": int})
_NUMBER = _Field("a number", _is_real, {"type": float})
_NUMBERS = _Field("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_real, v)),
                  {"type": float, "nargs": "+"})
#: Each typed job field, in the order of the flags on every subcommand.  An
#: eval job's ``expect`` is a list of numbers too; elsewhere it is a verdict
#: or a map.
_FIELDS = {
    "op": _one_of(tuple(_MEASURE_OPS)),
    "r": _NUMBERS,
    **dict.fromkeys(("rho", "q", "c2", "theta", "w", "lam"), _NUMBER),
    "n": _INTEGER,
    "xi": _NUMBERS,
    "p": _INTEGER,
    "integrand": _one_of(("sqrtlog", "growth")),
    "n_max": _INTEGER,
    "t": _NUMBERS,
    **dict.fromkeys(("a", "rel_tol", "sigma_tol"), _NUMBER),
    "checks": _Field(f"a list of check ids from {', '.join(CHECK_IDS)}",
                     lambda v: isinstance(v, list) and all(c in CHECK_IDS for c in v),
                     {"nargs": "+"}),
    "expect_log": _NUMBERS,
    "seed": _Field("a nonnegative integer", lambda v: _is_whole(v) and v >= 0),
    "out": _Field("a string", lambda v: isinstance(v, str)),
    "function": _Field("a function id", lambda v: isinstance(v, str)),
    "functions": _Field("a list of function ids",
                        lambda v: isinstance(v, list) and all(isinstance(f, str) for f in v)),
}

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
    if top_seed is not None and not _FIELDS["seed"].ok(top_seed):
        _fail(f"field 'seed' must be {_FIELDS['seed'].what}, got {top_seed!r}")
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
        if not isinstance(kind, str) or kind not in _JOB_KINDS:
            _fail(f"{where}: unknown kind {kind!r} (allowed: {', '.join(_JOB_KINDS)})")
        if kind == "measures" and not _FIELDS["op"].ok(job.get("op")):
            _fail(f"{where}: op must be one of {', '.join(_MEASURE_OPS)}")
        name = job["op"] if kind == "measures" else kind
        required = (_MEASURE_OPS[name] if kind == "measures" else _JOB_KINDS[kind]).required
        if kind == "verify" and job.get("check") == "chain-order":
            required = ("functions",)
        for key in required:
            if key not in job:
                _fail(f"{where}: {name} needs '{key}'")
        fields = {**_FIELDS, "expect": _NUMBERS} if kind == "eval" else _FIELDS
        for key, (what, ok, _) in fields.items():
            if key in job and not ok(job[key]):
                _fail(f"{where}: field {key!r} must be {what}, got {job[key]!r}")
            if job.get(key) == []:  # a job would run over nothing and pass
                _fail(f"{where}: field {key!r} must not be empty")
        refs = [job["function"]] if "function" in job else []
        for ref in refs + job.get("functions", []):
            if ref not in functions:
                _fail(f"{where}: undeclared function {ref!r}")
        grids = (("expect_log", "r"), ("expect", "t")) if kind == "eval" else (("expect_log", "r"),)
        for key, grid in grids:
            if key in job and grid in job and len(job[key]) != len(job[grid]):
                _fail(f"{where}: field {key!r} must hold one value per {grid!r}, "
                      f"got {len(job[key])} for {len(job[grid])}")
        if kind == "eval":
            if "lam" in job and "t" not in job:
                _fail(f"{where}: Mittag-Leffler eval needs 't' values")
            if "lam" not in job and ("function" not in job or "r" not in job):
                _fail(f"{where}: eval needs either 'function' + 'r' or 'lam' + 't'")
        if name == "poisson" and job.get("integrand") == "growth" and "function" not in job:
            _fail(f"{where}: the growth integrand needs a 'function'")
        if name == "hida":
            measure = job.get("measure")
            if not isinstance(measure, dict) or "kind" not in measure:
                _fail(f"{where}: hida needs a 'measure' object with a 'kind'")
            try:
                MeasureSurrogate(**measure)
            except (ParameterError, TypeError) as exc:
                _fail(f"{where}: measure: {exc}")
        grey_op = name in ("grey_cf", "grey_integrability")
        if grey_op:
            try:  # the grey surrogate's rules on lambda, n and w
                MeasureSurrogate("grey", **{key: job[key] for key in ("lam", "n", "w") if key in job})
            except ParameterError as exc:
                _fail(f"{where}: {exc}")
        if name == "grey_cf" and not all(math.isfinite(xi) and xi != 0.0 for xi in job.get("xi", ())):
            _fail(f"{where}: field 'xi' must hold finite nonzero numbers, got {job['xi']!r}")
        stochastic = grey_op or (name == "hida" and job["measure"]["kind"] == "grey")
        if stochastic and job.get("seed", top_seed) is None:
            _fail(f"{where}: stochastic job needs an integer seed (job-level or top-level)")


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


def _within(value: float, expect: float, rel_tol: float) -> bool:
    return abs(value - expect) <= rel_tol * max(1.0, abs(expect))


def _expected_values(job: dict, key: str, values: list[float], default_tol: float) -> dict:
    expect = job.get(key)
    if expect is None:
        return {"status": "pass"}
    rel_tol = float(job.get("rel_tol", default_tol))
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
        table = legendre_sequence(spec, job.get("n_max", 8))
    payload: dict = {"function": spec.function_id, "n_points": table.n_points,
                     "status": "pass"}
    # A relative "out" names a file in the output directory; with none, the
    # table stays in the payload.  An absolute one is written where it says.
    if "out" in job and (out_dir is not None or Path(job["out"]).is_absolute()):
        path = Path(job["out"]) if out_dir is None else out_dir / job["out"]
        table.write_csv(path)
        payload["artifact"] = str(path)
    else:
        payload["csv"] = table.csv_text()
    return payload


def _run_lfn(job: dict, funcs: dict, default_tol: float) -> dict:
    spec = funcs[job["function"]]
    evaluator = LFunctionEvaluator.from_spec(spec, n_max=job.get("n_max", 400))
    rs = [float(r) for r in job["r"]]
    values = l_function_wide(evaluator, np.asarray(rs)).tolist()
    check = _expected_values(job, "expect_log", values, default_tol)
    return {"function": spec.function_id, "r": rs, "log_l": values, **check}


def _run_verify(job: dict, funcs: dict) -> dict:
    if job.get("check") == "chain-order":
        specs = [funcs[fid] for fid in job["functions"]]
        report = check_chain_order(specs, n_max=job.get("n_max", 60))
        return {"report": report.to_json_dict(), "status": report.status}
    spec = funcs[job["function"]]
    reports = verify_function(
        spec,
        n_max=job.get("n_max", 60),
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
    n_max = job.get("n_max", 200)
    rel_tol = float(job.get("rel_tol", min(default_tol, 1e-10)))
    evaluator = LFunctionEvaluator.from_spec(spec, n_max=n_max)
    rows = []
    ok = True
    for xi in job.get("xi", (0.5, 1.0, 2.0)):
        xi = float(xi)
        # Compared in logs: past e^709 both linear norms read inf.
        logs = (log_dual_norm(ChaosSequence.exponential_vector(xi, n_max), evaluator.table),
                0.5 * l_function(evaluator, xi * xi))
        rel = math.expm1(abs(logs[0] - logs[1]))
        ok = ok and rel <= rel_tol
        direct, via_l = (math.exp(v) if v < 709.0 else math.inf for v in logs)
        rows.append({"xi": xi, "dual_norm": direct, "exp_vector_norm": via_l, "rel_err": rel})
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
    n = job.get("n", 200_000)
    sigma_tol = float(job.get("sigma_tol", 3.0))
    x = grey_sample(lam, n, int(seed))
    c = np.empty_like(x)  # cos(xi x) for each xi in turn
    rows = []
    ok = True
    for xi in job.get("xi", (0.5, 1.0, 2.0)):
        xi = float(xi)
        np.multiply(x, xi, out=c)
        np.cos(c, out=c)
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
        n=job.get("n", 10**6), seed=int(seed),
    )
    status = _verdict(
        job,
        expect=lambda want: (want == "finite") != (res.stable and math.isfinite(res.value)),
        expect_value=lambda want: not abs(res.value - float(want))
        <= float(job.get("sigma_tol", 3.0)) * res.stderr,
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
    report = hida_condition(surrogate, funcs[job["function"]], p=job.get("p", 0))
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
        payload = _JOB_KINDS[kind].run(job, funcs, out_dir, job.get("seed", top_seed),
                                       default_tol)
    except Exception as exc:  # noqa: BLE001 - job isolation
        payload = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    return {"id": job["id"], "kind": kind, **payload}


def run(manifest: dict, out_dir: str | Path | None = None,
        seed: int | None = None, tol: float | None = None,
        stream=None, print_payloads: bool = False) -> int:
    """Execute a validated manifest; returns the process exit code."""
    if seed is not None and isinstance(manifest, dict):
        manifest = {**manifest, "seed": seed}
    validate_manifest(manifest)
    stream = stream if stream is not None else sys.stdout
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


def _spec_from_args(args) -> dict:
    """The growth function given as ``--spec`` JSON, or as a ``--function`` id
    that the ``--config`` manifest declares."""
    if args.spec is not None:
        try:
            return json.loads(args.spec)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"--spec is not valid JSON: {exc}") from exc
    declared = {}
    if args.config is not None:
        declared = load_manifest(args.config).get("functions", {})
    if args.function not in declared:
        raise ManifestError(
            f"--function {args.function!r} needs a --config manifest declaring it"
        )
    return declared[args.function]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="manifest file declaring functions/jobs")
    common.add_argument("--out", help="directory for JSON/CSV artifacts")
    common.add_argument("--seed", type=int, help="override the manifest seed")
    common.add_argument("--tol", type=float, help="default relative tolerance")
    one_off = argparse.ArgumentParser(add_help=False, parents=[common])
    one_off.add_argument("--spec", help="inline growth-function spec as JSON")
    one_off.add_argument("--function", help="function id from --config")

    parser = argparse.ArgumentParser(
        prog="growthcalc",
        description="Growth-function transform calculus and inequality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, record in _JOB_KINDS.items():
        p = sub.add_parser(kind, parents=[one_off], help=record.help)
        ops = _MEASURE_OPS.values() if kind == "measures" else ()
        flags = {key: text for rec in (record, *ops) for key, text in rec.flags.items()}
        for key in sorted(flags, key=list(_FIELDS).index):
            p.add_argument(f"--{key.replace('_', '-')}", help=flags[key], **_FIELDS[key].flag)
    sub.choices["legendre"].add_argument("--csv", help="write the table to this CSV path")
    sub.choices["measures"].add_argument("--measure-kind", choices=MEASURE_KINDS,
                                         help="measure family for --op hida")
    sub.add_parser("suite", parents=[common],
                   help="run the shipped acceptance manifest")
    return parser


def _given(args, names) -> dict:
    return {key: getattr(args, key) for key in names if getattr(args, key) is not None}


def _one_off_manifest(args) -> dict:
    """Translate a single-shot subcommand invocation into a one-job manifest.

    The job holds the flags that were given; ``validate_manifest`` decides
    whether they are enough.
    """
    job: dict = {"id": args.command, "kind": args.command,
                 **_given(args, _JOB_KINDS[args.command].flags)}
    if "op" in job:
        job.update(_given(args, _MEASURE_OPS[job["op"]].flags))
    if getattr(args, "csv", None) is not None:
        job["out"] = args.csv if args.out is not None else str(Path(args.csv).absolute())
    if getattr(args, "measure_kind", None) is not None:
        job["measure"] = {"kind": args.measure_kind,
                          **_given(args, _HIDA_MEASURE_FIELDS[args.measure_kind])}
    functions = {}
    if args.spec is not None or args.function is not None:
        functions["f"] = _spec_from_args(args)
        job["function"] = "f"
    manifest = {"schema_version": SCHEMA_VERSION, "functions": functions, "jobs": [job]}
    if args.command == "measures":
        manifest["seed"] = 0  # ``run`` puts --seed over it
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
