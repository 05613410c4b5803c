"""Manifest validation, the runner, artifacts, and console entry points."""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import growthcalc
from growthcalc import ACCEPTANCE_MANIFEST, ManifestError, run
from growthcalc import kondratiev_streit, legendre_sequence
from growthcalc.cli import (
    _jsonable,
    _resolve_suite_manifest,
    load_manifest,
    validate_manifest,
)

KS0 = {"kind": "kondratiev_streit", "beta": 0.0}

REPO_ROOT = Path(__file__).resolve().parents[1]


def manifest(jobs, functions=None, seed=3):
    return {
        "schema_version": 1,
        "seed": seed,
        "functions": functions if functions is not None else {"ks0": dict(KS0)},
        "jobs": jobs,
    }


def eval_job(job_id="eval-1", **extra):
    job = {"id": job_id, "kind": "eval", "function": "ks0",
           "r": [1.0], "expect_log": [1.0], "rel_tol": 1e-10}
    job.update(extra)
    return job


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mutate,fragment", [
    (lambda m: m.pop("schema_version"), "schema_version"),
    (lambda m: m.update(schema_version=2), "schema_version"),
    (lambda m: m.update(functions="nope"), "functions"),
    (lambda m: m["functions"].update(bad={"kind": "no-such-kind"}), "bad"),
    (lambda m: m.update(jobs=[eval_job(), eval_job()]), "duplicate"),
    (lambda m: m.update(jobs=[eval_job(job_id="white space")]), "id"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "dance"}]), "kind"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": ["eval"]}]), "unknown kind ['eval']"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": ["hida"]}]),
     "op must be one of"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "eval"}]), "eval"),
    (lambda m: m.update(jobs=[eval_job(function="ghost")]), "ghost"),
    # A list as 'function' was looked up as a key (a TypeError), and a string
    # as 'functions' one character at a time.
    (lambda m: m.update(jobs=[eval_job(function=["ks0"])]),
     "job 'eval-1': field 'function' must be a function id, got ['ks0']"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "verify", "check": "chain-order",
                               "functions": "ks0"}]),
     "job 'x': field 'functions' must be a list of function ids, got 'ks0'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "lfn", "function": "ks0"}]), "r"),
    # Each of these would otherwise end in a bare KeyError when the job runs.
    (lambda m: m.update(jobs=[{"id": "x", "kind": "verify", "functions": ["ks0"]}]),
     "verify needs 'function'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "verify", "check": "chain-order",
                               "function": "ks0"}]), "verify needs 'functions'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "fernique",
                               "q": 1.0, "c2": 0.1}]), "fernique needs 'rho'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "fernique",
                               "rho": 0.5, "c2": 0.1}]), "fernique needs 'q'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "fernique",
                               "rho": 0.5, "q": 1.0}]), "fernique needs 'c2'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "grey_cf"}]),
     "grey_cf needs 'lam'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures",
                               "op": "grey_integrability", "w": 0.1}]),
     "grey_integrability needs 'lam'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures",
                               "op": "grey_integrability", "lam": 1.0}]),
     "grey_integrability needs 'w'"),
    # A count that is not an integer, a number field that is not a number and
    # a list field that is not a list of numbers, each named.
    (lambda m: m.update(jobs=[{"id": "x", "kind": "legendre", "function": "ks0",
                               "n_max": 2.5}]), "field 'n_max' must be an integer, got 2.5"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "verify", "function": "ks0",
                               "n_max": True}]), "field 'n_max' must be an integer, got True"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "grey_cf", "lam": 0.5,
                               "n": 1000.0}]), "field 'n' must be an integer, got 1000.0"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "hida", "function": "ks0",
                               "measure": {"kind": "gaussian"}, "p": "1"}]),
     "field 'p' must be an integer, got '1'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "fernique",
                               "rho": "0.5", "q": 1, "c2": 0.1}]),
     "field 'rho' must be a number, got '0.5'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "fernique",
                               "rho": 0.5, "q": True, "c2": 0.1}]),
     "field 'q' must be a number, got True"),
    (lambda m: m.update(jobs=[eval_job(rel_tol=None)]), "field 'rel_tol' must be a number"),
    (lambda m: m.update(jobs=[eval_job(r=1.0)]), "field 'r' must be a list of numbers"),
    (lambda m: m.update(jobs=[eval_job(r=[1.0, "2"])]), "field 'r' must be a list of numbers"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "fock", "function": "ks0", "xi": "1.0"}]),
     "field 'xi' must be a list of numbers"),
    # Expected values: True would read as 1.0 and "2" as [2.0].
    (lambda m: m.update(jobs=[eval_job(expect_log=[True])]),
     "field 'expect_log' must be a list of numbers, got [True]"),
    (lambda m: m.update(jobs=[eval_job(expect_log="2")]),
     "field 'expect_log' must be a list of numbers, got '2'"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "lfn", "function": "ks0", "r": [1.0],
                               "expect_log": [None]}]),
     "field 'expect_log' must be a list of numbers"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "eval", "lam": 0.5, "t": [1.0],
                               "expect": [True]}]),
     "field 'expect' must be a list of numbers, got [True]"),
    # The grey ops keep the grey surrogate's rules; a zero or non-finite xi
    # would divide by a zero or NaN stderr.
    # (The ids keep the texts these cases pinned before growth._real.)
    pytest.param(lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "grey_cf",
                                           "lam": 0.5, "n": 1}]),
                 "job 'x': grey field 'n' must be an integer in [100, inf), got 1",
                 id="<lambda>-job 'x': grey sampling needs n >= 100, got 1"),
    pytest.param(lambda m: m.update(jobs=[{"id": "x", "kind": "measures",
                                           "op": "grey_integrability", "lam": 1.0, "w": 0.1,
                                           "n": 99}]),
                 "job 'x': grey field 'n' must be an integer in [100, inf), got 99",
                 id="<lambda>-job 'x': grey sampling needs n >= 100, got 99"),
    pytest.param(lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "grey_cf",
                                           "lam": 1.5}]),
                 "job 'x': grey field 'lam' must be a number in (0, 1], got 1.5",
                 id="<lambda>-job 'x': lambda must lie in (0, 1], got 1.5"),
    pytest.param(lambda m: m.update(jobs=[{"id": "x", "kind": "measures",
                                           "op": "grey_integrability", "lam": 0.5, "w": -1.0}]),
                 "job 'x': grey field 'w' must be a number in [0, inf), got -1.0",
                 id="<lambda>-job 'x': the weight w must be finite and >= 0, got -1.0"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "grey_cf", "lam": 0.5,
                               "xi": [1.0, 0.0]}]),
     "field 'xi' must hold finite nonzero numbers, got [1.0, 0.0]"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "grey_cf", "lam": 0.5,
                               "xi": [math.inf]}]),
     "field 'xi' must hold finite nonzero numbers, got [inf]"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "measures", "op": "grey_cf", "lam": 0.5,
                               "xi": [math.nan]}]),
     "field 'xi' must hold finite nonzero numbers, got [nan]"),
])
def test_validate_manifest_rejects(mutate, fragment):
    m = manifest([eval_job()])
    mutate(m)
    with pytest.raises(ManifestError) as exc:
        validate_manifest(m)
    assert fragment in str(exc.value)


GREY_CF = {"id": "x", "kind": "measures", "op": "grey_cf", "lam": 0.5, "n": 1000}


@pytest.mark.parametrize("jobs,seed,message", [
    # Each would otherwise validate, then run a job other than the one written
    # or end in a job error with exit 1.
    ([{"id": "x", "kind": "measures", "op": "poisson", "integrand": "Growth"}], 3,
     "job 'x': field 'integrand' must be one of sqrtlog, growth, got 'Growth'"),
    ([{"id": "x", "kind": "verify", "function": "ks0", "checks": "log-concavity"}], 3,
     "job 'x': field 'checks' must be a list of check ids from table-definition, "),
    ([{"id": "x", "kind": "verify", "function": "ks0", "checks": ["no-such-check"]}], 3,
     "job 'x': field 'checks' must be a list of check ids from "),
    ([{"id": "x", "kind": "legendre", "function": "ks0", "out": 5}], 3,
     "job 'x': field 'out' must be a string, got 5"),
    ([{**GREY_CF, "seed": True}], 3, "job 'x': field 'seed' must be a nonnegative integer, got True"),
    ([{**GREY_CF, "seed": -1}], 3, "job 'x': field 'seed' must be a nonnegative integer, got -1"),
    ([GREY_CF], True, "error: field 'seed' must be a nonnegative integer, got True"),
    ([GREY_CF], -1, "error: field 'seed' must be a nonnegative integer, got -1"),
    ([eval_job("x", expect_log=[1.0, 2.0])], 3,
     "job 'x': field 'expect_log' must hold one value per 'r', got 2 for 1"),
    ([{"id": "x", "kind": "lfn", "function": "ks0", "r": [1.0, 2.0], "expect_log": [1.0]}], 3,
     "job 'x': field 'expect_log' must hold one value per 'r', got 1 for 2"),
    ([{"id": "x", "kind": "eval", "lam": 0.5, "t": [1.0], "expect": [0.5, 0.4]}], 3,
     "job 'x': field 'expect' must hold one value per 't', got 2 for 1"),
    # An empty list would run nothing and pass.
    ([{"id": "x", "kind": "verify", "function": "ks0", "checks": []}], 3,
     "job 'x': field 'checks' must not be empty"),
    ([{"id": "x", "kind": "verify", "check": "chain-order", "functions": []}], 3,
     "job 'x': field 'functions' must not be empty"),
    ([{"id": "x", "kind": "lfn", "function": "ks0", "r": []}], 3,
     "job 'x': field 'r' must not be empty"),
    ([{"id": "x", "kind": "eval", "lam": 0.5, "t": []}], 3,
     "job 'x': field 't' must not be empty"),
    ([{**GREY_CF, "xi": []}], 3, "job 'x': field 'xi' must not be empty"),
], ids=["integrand", "checks-string", "checks-unknown", "out", "job-seed-bool",
        "job-seed-negative", "seed-bool", "seed-negative", "eval-expect-log",
        "lfn-expect-log", "eval-expect", "checks-empty", "functions-empty", "r-empty",
        "t-empty", "xi-empty"])
def test_suite_rejects_a_bad_field_with_usage_exit(tmp_path, capsys, jobs, seed, message):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(manifest(jobs, seed=seed)))
    assert growthcalc.cli.main(["suite", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_validate_stochastic_jobs_need_seed():
    m = manifest(
        [{"id": "g", "kind": "measures", "op": "grey_cf", "lam": 0.5,
          "n": 1000, "xi": [1.0]}],
        seed=None,
    )
    m.pop("seed")
    with pytest.raises(ManifestError) as exc:
        validate_manifest(m)
    assert "seed" in str(exc.value)


def test_validate_accepts_acceptance_manifest():
    validate_manifest(load_manifest(ACCEPTANCE_MANIFEST))


def test_suite_manifest_ignores_working_directory(tmp_path, monkeypatch):
    decoy = tmp_path / "manifests" / "acceptance.json"
    decoy.parent.mkdir()
    decoy.write_text(json.dumps({"schema_version": 1, "jobs": []}))
    monkeypatch.chdir(tmp_path)
    jobs = _resolve_suite_manifest(None)["jobs"]
    assert len(jobs) == 31
    assert jobs == load_manifest(ACCEPTANCE_MANIFEST)["jobs"]


def test_repo_manifest_path_is_the_shipped_file():
    repo_file = REPO_ROOT / "manifests" / "acceptance.json"
    assert repo_file.read_bytes() == ACCEPTANCE_MANIFEST.read_bytes()


# ---------------------------------------------------------------------------
# JSON sanitation
# ---------------------------------------------------------------------------


def test_jsonable_handles_non_finite_and_numpy():
    payload = _jsonable({
        "a": math.inf, "b": -math.inf, "c": math.nan,
        "d": np.float64(1.5), "e": np.int64(3), "f": [np.bool_(True)],
    })
    assert payload == {"a": "inf", "b": "-inf", "c": "nan",
                       "d": 1.5, "e": 3, "f": [True]}
    assert isinstance(payload["f"][0], bool)
    json.dumps(payload)  # must be serializable as-is


# ---------------------------------------------------------------------------
# legendre table emission
# ---------------------------------------------------------------------------


def test_emit_legendre_table(tmp_path):
    path = tmp_path / "tab.csv"
    legendre_sequence(kondratiev_streit(0.0), 3).write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,log_ell,r_star"
    assert len(lines) == 5
    row2 = [float(x) for x in lines[3].split(",")]
    assert row2[0] == 2.0
    assert row2[1] == pytest.approx(2.0 * (1.0 - math.log(2.0)), rel=1e-12)
    # byte-for-byte determinism
    again = tmp_path / "tab2.csv"
    legendre_sequence(kondratiev_streit(0.0), 3).write_csv(again)
    assert path.read_bytes() == again.read_bytes()


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def test_run_pass_writes_artifacts(tmp_path, capsys):
    code = run(manifest([eval_job()]), out_dir=tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_jobs"] == 1 and summary["n_failed"] == 0
    payload = json.loads((tmp_path / "job-eval-1.json").read_text())
    assert payload["status"] == "pass"
    assert payload["mismatches"] == []
    assert "eval-1" in capsys.readouterr().out


def test_run_flags_failed_expectation(tmp_path):
    bad = eval_job(expect_log=[2.0])
    code = run(manifest([bad]), out_dir=tmp_path)
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_failed"] == 1
    assert summary["failed"] == ["eval-1"]


def test_run_marks_broken_job_as_error(tmp_path):
    broken = eval_job("eval-x", r=[-1.0])
    broken.pop("expect_log")
    code = run(manifest([broken]), out_dir=tmp_path)
    assert code == 1
    payload = json.loads((tmp_path / "job-eval-x.json").read_text())
    assert payload["status"] == "error"
    assert "ParameterError" in payload["error"]


def test_run_calls_the_job_runner_bound_in_the_module_once_per_job(monkeypatch):
    # The benchmark times jobs by patching ``cli._run_job``.
    from growthcalc import cli

    ids = []
    run_job = cli._run_job

    def patched(job, *args, **kwargs):
        ids.append(job["id"])
        return run_job(job, *args, **kwargs)

    monkeypatch.setattr(cli, "_run_job", patched)
    assert run(manifest([eval_job("a"), eval_job("b")]), stream=io.StringIO()) == 0
    assert ids == ["a", "b"]


def test_run_solves_each_sequence_once(monkeypatch):
    # The chain-order check reads the n = 0..60 tables that the batteries of
    # the same functions solved; every row is one ternary solve.
    from growthcalc import legendre

    rows = []
    ternary = legendre.legendre_transform

    def recording(spec, t, *args, **kwargs):
        rows.append((spec.function_id, t))
        return ternary(spec, t, *args, **kwargs)

    monkeypatch.setattr(legendre, "legendre_transform", recording)
    functions = {"ks05": {"kind": "kondratiev_streit", "beta": 0.5},
                 "g2": {"kind": "iterated_exp_sqrt", "k": 2}}
    jobs = [{"id": f"verify-{fid}", "kind": "verify", "function": fid, "n_max": 60,
             "checks": ["log-concavity"]} for fid in functions]
    jobs.append({"id": "chain", "kind": "verify", "check": "chain-order",
                 "functions": ["g2", "ks05"], "n_max": 60})
    assert run(manifest(jobs, functions), stream=io.StringIO()) == 0
    assert sorted(rows) == sorted((fid, float(n)) for fid in ("ks(beta=0.5)", "g2")
                                  for n in range(61))


def test_run_empty_jobs_is_a_warning_not_an_error(tmp_path):
    with pytest.warns(UserWarning, match="no jobs"):
        code = run(manifest([]), out_dir=tmp_path)
    assert code == 0


def test_suite_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exit_:
        growthcalc.cli.main(["suite", "--jobs", "2"])
    assert exit_.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_run_grey_artifacts_reproducible(tmp_path):
    grey = {"id": "g", "kind": "measures", "op": "grey_integrability",
            "lam": 1.0, "w": 0.1, "n": 20_000}
    for sub in ("one", "two"):
        assert run(manifest([grey], seed=9), out_dir=tmp_path / sub) == 0
    assert (tmp_path / "one" / "job-g.json").read_bytes() == \
           (tmp_path / "two" / "job-g.json").read_bytes()
    # a different seed must change the estimate
    assert run(manifest([grey], seed=10), out_dir=tmp_path / "three") == 0
    v_one = json.loads((tmp_path / "one" / "job-g.json").read_text())["value"]
    v_three = json.loads((tmp_path / "three" / "job-g.json").read_text())["value"]
    assert v_one != v_three


def test_grey_integrability_expect_finite_reads_the_exact_boundary(tmp_path):
    # finite exactly for w < w* = (lam/2)^lam, whatever the sample looks like
    cases = [(lam, factor, seed) for lam in (0.3, 0.5, 0.7, 1.0)
             for factor in (0.97, 1.03) for seed in range(5)]
    jobs = [{"id": f"g{i}", "kind": "measures", "op": "grey_integrability",
             "lam": lam, "w": factor * (lam / 2.0) ** lam, "n": 1000, "seed": seed,
             "expect": "finite"} for i, (lam, factor, seed) in enumerate(cases)]
    run(manifest(jobs), out_dir=tmp_path)
    for i, (lam, factor, seed) in enumerate(cases):
        got = json.loads((tmp_path / f"job-g{i}.json").read_text())
        assert got["status"] == ("pass" if factor < 1.0 else "fail"), (lam, factor, seed)
        assert {"value", "stderr", "stable", "top_share", "note"} <= got.keys()


def test_grey_integrability_nan_estimate_fails_expect_value(tmp_path, monkeypatch):
    from growthcalc import cli
    from growthcalc.measures import GreyResult

    nan = GreyResult(value=math.nan, stderr=0.01, log_value=math.nan, n=100,
                     seed=9, stable=True, top_share=0.0)
    monkeypatch.setattr(cli, "grey_integrability", lambda *args, **kwargs: nan)
    grey = {"id": "g", "kind": "measures", "op": "grey_integrability",
            "lam": 1.0, "w": 0.1, "n": 100, "expect_value": 1.0}
    assert run(manifest([grey], seed=9), out_dir=tmp_path) == 1
    assert json.loads((tmp_path / "job-g.json").read_text())["status"] == "fail"


def test_run_seed_argument_overrides_manifest(tmp_path):
    grey = {"id": "g", "kind": "measures", "op": "grey_integrability",
            "lam": 1.0, "w": 0.1, "n": 20_000}
    assert run(manifest([grey], seed=9), out_dir=tmp_path / "a", seed=10) == 0
    assert run(manifest([grey], seed=10), out_dir=tmp_path / "b") == 0
    assert (tmp_path / "a" / "job-g.json").read_bytes() == \
           (tmp_path / "b" / "job-g.json").read_bytes()


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def run_cli(*args):
    """Run the CLI in a separate interpreter on the package the tests import.

    ``python -m growthcalc`` needs no installed console script, and putting
    the imported package's directory first on ``PYTHONPATH`` keeps an older
    installed copy, or a relative ``PYTHONPATH``, from changing what runs.
    """
    src = str(Path(growthcalc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-m", "growthcalc", *args],
                          capture_output=True, text=True, env=env)


def parse_payload(stdout):
    """One-off commands print the job payload followed by a summary line."""
    return json.loads(stdout[: stdout.rindex("}") + 1])


def test_cli_eval_one_off():
    proc = run_cli("eval", "--spec", json.dumps(KS0), "--r", "1.0", "2.0")
    assert proc.returncode == 0, proc.stderr
    payload = parse_payload(proc.stdout)
    assert payload["log_u"] == [pytest.approx(1.0), pytest.approx(2.0)]


def test_cli_eval_mittag_leffler():
    proc = run_cli("eval", "--lam", "1.0", "--t", "2.0")
    assert proc.returncode == 0, proc.stderr
    payload = parse_payload(proc.stdout)
    assert payload["values"] == [pytest.approx(math.exp(-2.0), rel=1e-12)]


def test_cli_rejects_bad_spec_with_usage_exit():
    proc = run_cli("eval", "--spec", '{"kind": "no-such-kind"}', "--r", "1.0")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_cli_requires_reachable_function():
    proc = run_cli("eval", "--function", "ghost", "--r", "1.0")
    assert proc.returncode == 2
    assert "ghost" in proc.stderr or "config" in proc.stderr


def test_cli_conditions_failure_is_exit_one():
    # a claimed-conditions list that the grid check refutes
    spec = {
        "kind": "power_series",
        "log_coeffs": [0.0, None, 0.0, None, -math.log(2.0)],
        "claimed_conditions": ["U0", "U1", "U2", "U3"],
        "label": "partial-exp-square",
    }
    proc = run_cli("conditions", "--spec", json.dumps(spec))
    payload = parse_payload(proc.stdout)
    assert set(payload["report"]["checks"]) >= {"U0", "U1", "U2", "U3"}
    # the truncated polynomial cannot certify exponential order on its
    # faithful range, so the claimed U2 is refuted and the job fails
    assert proc.returncode == 1
    assert "U2" in payload["failed"]


def test_suite_without_out_writes_no_file_and_keeps_the_table_in_the_payload(
        tmp_path, monkeypatch, capsys):
    # The shipped manifest's jobs that name an "out" file, run in process
    # from an empty working directory with no output directory.
    shipped = json.loads(ACCEPTANCE_MANIFEST.read_text())
    jobs = [job for job in shipped["jobs"] if "out" in job]
    assert jobs
    manifest = {**shipped, "jobs": jobs}
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(manifest, print_payloads=True) == 0
    assert list(work.iterdir()) == []
    payload = parse_payload(capsys.readouterr().out)
    # With an output directory the same table is the artifact, byte for byte.
    assert run(manifest, out_dir=tmp_path / "out") == 0
    assert (tmp_path / "out" / jobs[0]["out"]).read_text() == payload["csv"]


def test_cli_legendre_csv(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_cli("legendre", "--spec", json.dumps(KS0), "--n-max", "3",
                   "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("t,log_ell,r_star")


def test_cli_suite_with_custom_config(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(manifest([eval_job()])))
    proc = run_cli("suite", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "1 job" in proc.stdout or "pass" in proc.stdout


def _perfbench_module(name):
    """``perfbench/<name>.py``, loaded read-only as a module."""
    import importlib.util

    loader = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_suite_matches_the_benchmark_reference(tmp_path, capsys):
    # The benchmark's correctness gate, in process: every artifact of the
    # shipped manifest within perfbench's tolerance of its stored reference.
    import hashlib

    bench = REPO_ROOT / "perfbench"
    compare = _perfbench_module("compare")
    reference = json.loads((bench / "reference" / "suite.json").read_text())
    assert hashlib.sha256(ACCEPTANCE_MANIFEST.read_bytes()).hexdigest() == \
        reference["manifest_sha256"]
    out = tmp_path / "out"
    assert growthcalc.cli.main(["suite", "--out", str(out)]) == 0, capsys.readouterr().err
    assert compare.failed_jobs(compare.read_artifacts(str(out)), reference["files"]) == {}


def test_suite_does_not_import_numpy_ma():
    # np.unique, np.isin and np.median import numpy.ma on first use, which
    # costs a cold suite 11-20 ms; the grids use sort-based helpers instead.
    # This process has numpy.ma loaded already, so a fresh one runs the suite.
    src = str(Path(growthcalc.__file__).resolve().parents[1])
    code = ("import sys; from growthcalc import cli; rc = cli.main(['suite']); "
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_lseries_queries_match_the_benchmark_reference():
    # The lseries-query workload's gate: every kind on the whole radius grid
    # within the benchmark's tolerance of its stored log L.
    worker = _perfbench_module("worker")
    reference = json.loads((REPO_ROOT / "perfbench" / "reference" / "lseries.json").read_text())
    grid = np.array(worker.lseries_grid())
    for kind, spec in worker.lseries_specs(growthcalc).items():
        got = growthcalc.l_function_wide(growthcalc.LFunctionEvaluator.from_spec(spec), grid)
        want = np.array(reference["log_l"][kind])
        bad = np.abs(got - want) > worker.REL_TOL * np.maximum(1.0, np.abs(want))
        assert not bad.any(), (kind, grid[bad][:3], got[bad][:3], want[bad][:3])


# ---------------------------------------------------------------------------
# one-off subcommands, in process
# ---------------------------------------------------------------------------

KS05 = {"kind": "kondratiev_streit", "beta": 0.5}
G2 = {"kind": "iterated_exp_sqrt", "k": 2}


def one_off(capsys, *args):
    """Run a one-off subcommand in process: (exit code, payload, stderr)."""
    code = growthcalc.cli.main([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, (parse_payload(out) if "{" in out else None), err


@pytest.mark.parametrize("rs,flags,n_max", [([0.5, 2.0], (), 400),
                                            ([1.0], ("--n-max", 100), 100)])
def test_cli_lfn_one_off(capsys, rs, flags, n_max):
    code, payload, _ = one_off(capsys, "lfn", "--spec", json.dumps(KS0), "--r", *rs, *flags)
    assert code == 0
    evaluator = growthcalc.LFunctionEvaluator.from_spec(kondratiev_streit(0.0), n_max=n_max)
    assert payload["r"] == rs
    assert payload["log_l"] == growthcalc.l_function_wide(evaluator, np.asarray(rs)).tolist()


@pytest.mark.parametrize("flags,n_max", [((), 8), (("--n-max", 3), 3)])
def test_cli_legendre_one_off_table_size(capsys, flags, n_max):
    code, payload, _ = one_off(capsys, "legendre", "--spec", json.dumps(KS0), *flags)
    assert code == 0
    assert payload["n_points"] == n_max + 1
    assert payload["csv"] == growthcalc.legendre_sequence(kondratiev_streit(0.0),
                                                          n_max).csv_text()


def test_cli_verify_one_off_runs_the_checks_given(capsys):
    code, payload, _ = one_off(capsys, "verify", "--spec", json.dumps(KS0),
                               "--checks", "log-concavity", "decreasing-tail")
    assert code == 0 and payload["status"] == "pass"
    assert [r["check"] for r in payload["reports"]] == ["log-concavity", "decreasing-tail"]
    assert {r["grid"]["n_max"] for r in payload["reports"]} == {60}


def test_cli_verify_one_off_passes_n_max_and_a(capsys):
    code, payload, _ = one_off(capsys, "verify", "--spec", json.dumps(KS0), "--n-max", 30,
                               "--a", 3, "--checks", "log-concavity", "lseries-sandwich")
    assert code == 0
    concavity, sandwich = payload["reports"]
    assert concavity["grid"]["n_max"] == 30
    assert sandwich["constants"]["a"] == 3.0


@pytest.mark.parametrize("flags,xis", [((), [0.5, 1.0, 2.0]),
                                       (("--xi", 1.0, "--n-max", 100), [1.0])])
def test_cli_fock_one_off(capsys, flags, xis):
    code, payload, _ = one_off(capsys, "fock", "--spec", json.dumps(KS0), *flags)
    assert code == 0 and payload["status"] == "pass"
    assert [row["xi"] for row in payload["exp_vector_identity"]] == xis
    assert len(payload["s_transform_monomials"]) == 7


def test_cli_fock_compares_the_norms_in_logs_past_the_double_range(capsys):
    # At xi = 650 both norms are about e^750: their linear values read inf.
    spec = {"kind": "kondratiev_streit", "beta": 0.95}
    code, payload, _ = one_off(capsys, "fock", "--spec", json.dumps(spec), "--xi", 650,
                               "--n-max", 1200)
    (row,) = payload["exp_vector_identity"]
    assert row["dual_norm"] == row["exp_vector_norm"] == "inf"
    assert 0.0 <= row["rel_err"] <= 1e-12
    assert code == 0 and payload["status"] == "pass"


@pytest.mark.parametrize("flags,args", [(("--rho", 0.5, "--q", 1, "--c2", 0.1),
                                         (0.5, 1.0, 0.1)),
                                        (("--rho", 0.3, "--q", 2, "--c2", 2.0),
                                         (0.3, 2.0, 2.0))])
def test_cli_measures_fernique_one_off(capsys, flags, args):
    code, payload, _ = one_off(capsys, "measures", "--op", "fernique", *flags)
    res = growthcalc.fernique_product(*args)
    assert code == 0
    assert (payload["value"], payload["boundary"], payload["n_factors"]) == \
           (res.value, res.boundary, res.n_factors)


def test_cli_measures_poisson_one_off(capsys):
    code, payload, _ = one_off(capsys, "measures", "--op", "poisson")
    res = growthcalc.poisson_integrability(1.0, growthcalc.poisson_sqrtlog_integrand(1.0))
    assert code == 0 and payload["value"] == res.value
    code, payload, _ = one_off(capsys, "measures", "--op", "poisson", "--integrand", "growth",
                               "--spec", json.dumps(G2), "--theta", 2, "--w", 0.5)
    log_g = growthcalc.poisson_growth_integrand(growthcalc.iterated_exp_sqrt(2), 0.5)
    assert code == 0
    assert payload["value"] == growthcalc.poisson_integrability(2.0, log_g).value


def test_cli_measures_grey_cf_one_off(capsys):
    code, payload, _ = one_off(capsys, "measures", "--op", "grey_cf", "--lam", 0.5,
                               "--n", 20000, "--xi", 1.0)
    assert code == 0
    assert (payload["lam"], payload["n"], payload["seed"]) == (0.5, 20000, 0)
    assert [row["xi"] for row in payload["cf"]] == [1.0]
    assert payload["cf"][0]["target"] == growthcalc.mittag_leffler(0.5, 1.0)


@pytest.mark.parametrize("flags,lam,seed", [(("--lam", 1.0), 1.0, 0),
                                            (("--lam", 0.5, "--seed", 4), 0.5, 4)])
def test_cli_measures_grey_integrability_one_off(capsys, flags, lam, seed):
    code, payload, _ = one_off(capsys, "measures", "--op", "grey_integrability",
                               "--w", 0.1, "--n", 20000, *flags)
    assert code == 0
    assert (payload["n"], payload["seed"]) == (20000, seed)
    assert payload["value"] == growthcalc.grey_integrability(lam, 0.1, n=20000, seed=seed).value


@pytest.mark.parametrize("flags,spec,measure,p", [
    (("--measure-kind", "gaussian", "--spec", json.dumps(KS0)), kondratiev_streit(0.0),
     growthcalc.MeasureSurrogate("gaussian"), 0),
    (("--measure-kind", "gaussian", "--spec", json.dumps(KS0), "--rho", 0.2, "--p", 1),
     kondratiev_streit(0.0), growthcalc.MeasureSurrogate("gaussian", rho=0.2), 1),
    (("--measure-kind", "poisson", "--spec", json.dumps(G2)), growthcalc.iterated_exp_sqrt(2),
     growthcalc.MeasureSurrogate("poisson"), 0),
    (("--measure-kind", "poisson", "--spec", json.dumps(G2), "--theta", 3),
     growthcalc.iterated_exp_sqrt(2), growthcalc.MeasureSurrogate("poisson", theta=3.0), 0),
    (("--measure-kind", "grey", "--lam", 0.5, "--spec", json.dumps(KS05), "--n", 2000,
      "--p", 1), kondratiev_streit(0.5),
     growthcalc.MeasureSurrogate("grey", lam=0.5, n=2000), 1),
])
def test_cli_measures_hida_one_off(capsys, flags, spec, measure, p):
    code, payload, _ = one_off(capsys, "measures", "--op", "hida", *flags)
    assert code == 0
    report = growthcalc.hida_condition(measure, spec, p=p).to_json_dict()
    assert payload["report"] == _jsonable(report)


@pytest.mark.parametrize("args,field", [
    (("eval", "--lam", 0.5), "Mittag-Leffler eval needs 't'"),
    (("legendre",), "legendre needs 'function'"),
    (("lfn", "--spec", json.dumps(KS0)), "lfn needs 'r'"),
    (("measures", "--op", "hida", "--spec", json.dumps(KS0)),
     "hida needs a 'measure' object with a 'kind'"),
    (("measures", "--op", "hida", "--measure-kind", "gaussian"), "hida needs 'function'"),
    (("measures",), "op must be one of"),
    # The measures flags have no defaults of their own: a job field is required
    # in a one-off exactly when it is in a manifest.
    (("measures", "--op", "fernique"), "fernique needs 'rho'"),
    (("measures", "--op", "grey_integrability", "--w", 0.1), "grey_integrability needs 'lam'"),
    (("measures", "--op", "grey_cf"), "grey_cf needs 'lam'"),
])
def test_cli_one_off_names_the_missing_field(capsys, args, field):
    code, payload, err = one_off(capsys, *args)
    assert (code, payload) == (2, None)
    assert f"job '{args[0]}': {field}" in err


@pytest.mark.parametrize("args,message", [
    (("--op", "grey_cf", "--lam", 0.5, "--n", 1),
     "grey field 'n' must be an integer in [100, inf), got 1"),
    (("--op", "grey_cf", "--lam", 0.5, "--xi", 0), "field 'xi' must hold finite nonzero numbers"),
    (("--op", "grey_integrability", "--lam", 1.0, "--w", 0.1, "--n", 1),
     "grey field 'n' must be an integer in [100, inf), got 1"),
], ids=["cf-n", "cf-xi", "integrability-n"])
def test_cli_grey_one_off_rejects_a_bad_field_before_sampling(capsys, args, message):
    # These ran, and reported a NaN stderr with two RuntimeWarnings, a raw
    # ZeroDivisionError, and a stderr of rounding noise.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload, err = one_off(capsys, "measures", *args)
    assert (code, payload) == (2, None)
    assert f"error: job 'measures': {message}" in err


def test_cli_seed_flag_is_checked_like_the_manifest_seed(capsys):
    code, payload, err = one_off(capsys, "measures", "--op", "grey_cf", "--lam", 0.5,
                                 "--n", 1000, "--seed", -1)
    assert (code, payload) == (2, None)
    assert "error: field 'seed' must be a nonnegative integer, got -1" in err


def test_cli_measures_one_off_is_the_job_of_its_flags_alone():
    # No flag default stands in for a field, so the runner's defaults apply
    # as they do to a manifest job (n = 10**6 for grey_integrability).
    from growthcalc.cli import _one_off_manifest, build_parser

    args = build_parser().parse_args(["measures", "--op", "grey_integrability", "--lam", "1",
                                      "--w", "0.1"])
    assert _one_off_manifest(args)["jobs"] == [
        {"id": "measures", "kind": "measures", "op": "grey_integrability", "lam": 1.0, "w": 0.1}]


@pytest.mark.parametrize("measure,fragment", [
    # (The ids keep the texts these cases pinned before growth._real.)
    pytest.param({"kind": "gaussian", "rho": 2.0},
                 "gaussian field 'rho' must be a number in (0, 1), got 2.0",
                 id="measure0-rho must lie in (0, 1)"),
    pytest.param({"kind": "gaussian", "q": 1.5},
                 "gaussian field 'q' must be an integer in [0, inf), got 1.5",
                 id="measure1-q must be an integer >= 0"),
    pytest.param({"kind": "grey", "lam": 0.5, "n": 10},
                 "grey field 'n' must be an integer in [100, inf), got 10", id="measure2-n >= 100"),
    ({"kind": "poisson", "theta": "one"}, "measure:"),
    ({"kind": "gaussian", "sigma": 1.0}, "sigma"),
    pytest.param({"kind": "poisson", "theta": "one"},
                 "field 'theta' must be a number in (0, inf), got 'one'",
                 id="measure5-field 'theta' must be a number, got 'one'"),
    pytest.param({"kind": "poisson", "theta": True},
                 "field 'theta' must be a number in (0, inf), got True",
                 id="measure6-field 'theta' must be a number, got True"),
    pytest.param({"kind": "grey", "lam": 0.5, "n": 1000.0},
                 "field 'n' must be an integer in [100, inf), got 1000.0",
                 id="measure7-field 'n' must be an integer, got 1000.0"),
    pytest.param({"kind": "grey", "lam": 0.5, "seed": "7"},
                 "field 'seed' must be an integer in [0, inf), got '7'",
                 id="measure8-field 'seed' must be an integer, got '7'"),
    pytest.param({"kind": "poisson", "theta": math.inf},
                 "poisson field 'theta' must be a number in (0, inf), got inf",
                 id="measure9-theta must be finite and positive, got inf"),
    pytest.param({"kind": "poisson", "w": math.nan},
                 "poisson field 'w' must be a number in [0, inf), got nan",
                 id="measure10-w must be finite and >= 0, got nan"),
])
def test_validate_manifest_builds_each_hida_measure(measure, fragment):
    m = manifest([{"id": "h", "kind": "measures", "op": "hida", "function": "ks0",
                   "measure": measure}])
    with pytest.raises(ManifestError) as exc:
        validate_manifest(m)
    assert str(exc.value).startswith("job 'h': measure: ")
    assert fragment in str(exc.value)


@pytest.mark.parametrize("flag", [("--q", 1.5), ("--rho", 2.0)])
def test_cli_hida_rejects_a_bad_gaussian_measure_before_running(capsys, flag):
    code, payload, err = one_off(capsys, "measures", "--op", "hida", "--measure-kind",
                                 "gaussian", "--spec", json.dumps(KS0), *flag)
    assert (code, payload) == (2, None)
    assert f"gaussian field '{flag[0][2:]}' must" in err


def test_cli_reads_q_as_a_manifest_would(capsys):
    # A Gaussian measure's q is whole by the one rule: --q 2 is the int 2,
    # and --q 2.0 a float, as in a manifest.  Fernique's real q takes both.
    hida = ("measures", "--op", "hida", "--measure-kind", "gaussian", "--spec", json.dumps(KS0))
    code, payload, _ = one_off(capsys, *hida, "--q", "2")
    assert code == 0 and payload["status"] == "pass"
    code, payload, err = one_off(capsys, *hida, "--q", "2.0")
    assert (code, payload) == (2, None)
    assert "gaussian field 'q' must be an integer in [0, inf), got 2.0" in err
    fernique = ("measures", "--op", "fernique", "--rho", "0.5", "--c2", "0.1")
    values = [one_off(capsys, *fernique, "--q", q)[1]["value"] for q in ("2", "2.0")]
    assert values[0] == values[1]


def test_cli_parses_a_spec_the_command_does_not_use(capsys):
    code, payload, err = one_off(capsys, "measures", "--op", "fernique", "--spec", "{nope")
    assert (code, payload) == (2, None)
    assert "--spec is not valid JSON" in err


_COMMON_FLAGS = [
    (("-h", "--help"), "help", None, 0, None, argparse.SUPPRESS,
     "show this help message and exit"),
    (("--config",), "config", None, None, None, None, "manifest file declaring functions/jobs"),
    (("--out",), "out", None, None, None, None, "directory for JSON/CSV artifacts"),
    (("--seed",), "seed", int, None, None, None, "override the manifest seed"),
    (("--tol",), "tol", float, None, None, None, "default relative tolerance"),
]
_ONE_OFF_FLAGS = _COMMON_FLAGS + [
    (("--spec",), "spec", None, None, None, None, "inline growth-function spec as JSON"),
    (("--function",), "function", None, None, None, None, "function id from --config"),
]
_N_MAX = (("--n-max",), "n_max", int, None, None, None, None)
#: Every subcommand in order, with its help and each flag's option strings,
#: dest, type, nargs, choices, default and help.
CLI_SURFACE = [
    ("eval", "evaluate log u(r) or the Mittag-Leffler function", _ONE_OFF_FLAGS + [
        (("--r",), "r", float, "+", None, None, "radii for log u"),
        (("--lam",), "lam", float, None, None, None, "Mittag-Leffler parameter in (0, 1]"),
        (("--t",), "t", float, "+", None, None, "Mittag-Leffler arguments"),
    ]),
    ("legendre", "tabulate the transform (t, log ell, r*)", _ONE_OFF_FLAGS + [
        _N_MAX,
        (("--t",), "t", float, "+", None, None, "explicit t grid"),
        (("--csv",), "csv", None, None, None, None, "write the table to this CSV path"),
    ]),
    ("lfn", "evaluate log L_u(r)", _ONE_OFF_FLAGS + [
        (("--r",), "r", float, "+", None, None, None),
        _N_MAX,
    ]),
    ("conditions", "grid-check the growth/convexity conditions", _ONE_OFF_FLAGS),
    ("verify", "run the inequality battery for one function", _ONE_OFF_FLAGS + [
        _N_MAX,
        (("--a",), "a", float, None, None, None, None),
        (("--checks",), "checks", None, "+", None, None, "subset of check ids"),
    ]),
    ("fock", "exponential-vector identity and S-transform checks", _ONE_OFF_FLAGS + [
        (("--xi",), "xi", float, "+", None, None, None),
        _N_MAX,
    ]),
    ("measures", "measure integrability estimators", _ONE_OFF_FLAGS + [
        (("--op",), "op", None, None,
         ("fernique", "poisson", "grey_cf", "grey_integrability", "hida"), None, None),
        (("--rho",), "rho", float, None, None, None, None),
        (("--q",), "q", growthcalc.cli._json_number, None, None, None, None),
        *[((f"--{name}",), name, float, None, None, None, None)
          for name in ("c2", "theta", "w", "lam")],
        (("--n",), "n", int, None, None, None, None),
        (("--xi",), "xi", float, "+", None, None, None),
        (("--p",), "p", int, None, None, None, None),
        (("--integrand",), "integrand", None, None, ("sqrtlog", "growth"), None, None),
        (("--measure-kind",), "measure_kind", None, None, ("gaussian", "poisson", "grey"),
         None, "measure family for --op hida"),
    ]),
    ("suite", "run the shipped acceptance manifest", _COMMON_FLAGS),
]


def test_cli_surface_is_pinned():
    from growthcalc.cli import build_parser

    parser = build_parser()
    assert (parser.prog, parser.description) == (
        "growthcalc", "Growth-function transform calculus and inequality verification")
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert subparsers.dest == "command" and subparsers.required
    helps = {action.dest: action.help for action in subparsers._choices_actions}
    surface = [
        (name, helps[name], [
            (tuple(a.option_strings), a.dest, a.type, a.nargs,
             None if a.choices is None else tuple(a.choices), a.default, a.help)
            for a in sub._actions])
        for name, sub in subparsers.choices.items()
    ]
    assert surface == CLI_SURFACE


def test_one_off_and_required_tables_cover_every_job_kind_and_op():
    # Each kind and op is one record: its required fields and its one-off
    # flags must be declared fields, and each flag a dest of its subcommand.
    from dataclasses import fields

    from growthcalc import cli
    from growthcalc.measures import MEASURE_KINDS, MeasureSurrogate

    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers) == [*cli._JOB_KINDS, "suite"]

    def dests(name):
        parser = subparsers["measures" if name in cli._MEASURE_OPS else name]
        return {action.dest for action in parser._actions}

    for name, record in {**cli._JOB_KINDS, **cli._MEASURE_OPS}.items():
        assert set(record.required) <= set(cli._FIELDS) | {"function"}, name
        assert set(record.flags) <= set(cli._FIELDS) & dests(name), name
    assert set(cli._HIDA_MEASURE_FIELDS) == set(MEASURE_KINDS)
    surrogate_fields = {f.name for f in fields(MeasureSurrogate)}
    for keys in cli._HIDA_MEASURE_FIELDS.values():
        assert set(keys) <= dests("hida") & surrogate_fields
