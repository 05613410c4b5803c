"""Manifest validation, the runner, artifacts, and console entry points."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import growthcalc
from growthcalc import ACCEPTANCE_MANIFEST, ManifestError, emit_legendre_table, run
from growthcalc import kondratiev_streit
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
    (lambda m: m.update(jobs=[{"id": "x", "kind": "eval"}]), "eval"),
    (lambda m: m.update(jobs=[eval_job(function="ghost")]), "ghost"),
    (lambda m: m.update(jobs=[{"id": "x", "kind": "lfn", "function": "ks0"}]), "r"),
])
def test_validate_manifest_rejects(mutate, fragment):
    m = manifest([eval_job()])
    mutate(m)
    with pytest.raises(ManifestError) as exc:
        validate_manifest(m)
    assert fragment in str(exc.value)


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
    emit_legendre_table(kondratiev_streit(0.0), 3, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,log_ell,r_star"
    assert len(lines) == 5
    row2 = [float(x) for x in lines[3].split(",")]
    assert row2[0] == 2.0
    assert row2[1] == pytest.approx(2.0 * (1.0 - math.log(2.0)), rel=1e-12)
    # byte-for-byte determinism
    again = tmp_path / "tab2.csv"
    emit_legendre_table(kondratiev_streit(0.0), 3, again)
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
