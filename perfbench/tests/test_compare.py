"""The suite artifact comparer."""

import math

from compare import compare, failed_jobs

REF = {
    "id": "lfn-ks0",
    "kind": "lfn",
    "log_l": [1.25, 267.46371795488454, 0.0],
    "artifact": "/tmp/run-a/legendre-ks0.csv",
    "summary": "check   worst_margin\nlog-concavity  1.234e-03",
    "status": "pass",
    "n": 12,
    "finite": True,
}


def perturbed(**changes):
    doc = {**REF, "log_l": list(REF["log_l"])}
    doc.update(changes)
    return doc


def test_identical_documents_match():
    assert compare(perturbed(), REF) == []


def test_one_percent_change_of_one_value_fails():
    doc = perturbed()
    doc["log_l"][1] *= 1.01
    diffs = compare(doc, REF)
    assert len(diffs) == 1 and diffs[0].startswith("$.log_l[1]: ")


def test_last_bit_change_passes():
    doc = perturbed()
    doc["log_l"] = [math.nextafter(x, math.inf) for x in doc["log_l"]]
    assert compare(doc, REF) == []


def test_artifact_path_is_ignored_but_file_name_is_not():
    assert compare(perturbed(artifact="/elsewhere/legendre-ks0.csv"), REF) == []
    assert compare(perturbed(artifact="/tmp/run-a/legendre-ks1.csv"), REF) != []


def test_numbers_inside_text_compare_with_tolerance():
    assert compare(perturbed(summary=REF["summary"].replace("1.234e-03", "1.2340000000001e-03")),
                   REF) == []
    assert compare(perturbed(summary=REF["summary"].replace("1.234e-03", "1.247e-03")),
                   REF) != []
    assert compare(perturbed(summary=REF["summary"].replace("log-", "log_")), REF) != []


def test_types_keys_and_flags_must_match():
    assert compare(perturbed(finite=False), REF) != []
    assert compare(perturbed(n="12"), REF) != []
    doc = perturbed()
    del doc["n"]
    assert compare(doc, REF) == ["$.n: missing"]


def test_failed_jobs_maps_files_to_jobs():
    reference = {
        "job-lfn-ks0.json": REF,
        "legendre-ks0.csv": "t,log_ell\n0.0,1.5\n",
        "summary.json": {"n_failed": 0},
    }
    files = {
        "job-lfn-ks0.json": perturbed(artifact="/x/legendre-ks0.csv"),
        "legendre-ks0.csv": "t,log_ell\n0.0,1.6\n",
        "summary.json": {"n_failed": 0},
    }
    assert list(failed_jobs(files, reference)) == ["lfn-ks0"]
    files["legendre-ks0.csv"] = reference["legendre-ks0.csv"]
    assert failed_jobs(files, reference) == {}
    files["job-lfn-ks0.json"] = perturbed(status="fail")
    assert list(failed_jobs(files, reference)) == ["lfn-ks0"]
    del files["summary.json"]
    assert "summary.json" in failed_jobs(files, reference)
