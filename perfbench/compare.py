"""Compare suite artifacts with the stored reference, number by number.

Numbers (also those inside strings such as summary tables and CSV text) must
agree to a relative tolerance, so a change that only moves last bits passes;
everything else must match exactly.  The ``artifact`` field embeds the
``--out`` directory, so only its file name is compared.
"""

from __future__ import annotations

import json
import math
import os
import re

REL_TOL = 1e-9

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(a: float, b: float, rel_tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel_tol * max(1.0, abs(b))


def _compare_text(a: str, b: str, rel_tol: float) -> bool:
    if a == b:
        return True
    a_nums, b_nums = _NUMBER.findall(a), _NUMBER.findall(b)
    if _NUMBER.split(a) != _NUMBER.split(b) or len(a_nums) != len(b_nums):
        return False
    return all(_close(float(x), float(y), rel_tol) for x, y in zip(a_nums, b_nums))


def compare(actual, expected, rel_tol: float = REL_TOL, path: str = "$") -> list[str]:
    """Paths at which ``actual`` differs from ``expected``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out = [f"{path}.{k}: missing" for k in expected if k not in actual]
        out += [f"{path}.{k}: unexpected" for k in actual if k not in expected]
        for key in expected.keys() & actual.keys():
            a, e = actual[key], expected[key]
            if key == "artifact" and isinstance(a, str) and isinstance(e, str):
                a, e = os.path.basename(a), os.path.basename(e)
            out += compare(a, e, rel_tol, f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, rel_tol, f"{path}[{i}]")
        return out
    if isinstance(expected, bool) or isinstance(actual, bool) or expected is None:
        return [] if actual is expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)):
        if isinstance(actual, (int, float)) and _close(float(actual), float(expected), rel_tol):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, str):
        if isinstance(actual, str) and _compare_text(actual, expected, rel_tol):
            return []
        return [f"{path}: text differs"]
    return [f"{path}: unsupported value {expected!r}"]


def read_artifacts(out_dir: str) -> dict:
    """Every artifact in ``out_dir``: JSON files parsed, other files as text."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            files[name] = json.load(fh) if name.endswith(".json") else fh.read()
    return files


def failed_jobs(files: dict, reference: dict, rel_tol: float = REL_TOL) -> dict[str, list[str]]:
    """Job id -> mismatches, for every job whose artifacts differ from the
    reference or whose status is not ``pass``.  Files that belong to no job
    (``summary.json``) are reported under their file name."""
    owner = {}
    for name, doc in reference.items():
        if name.startswith("job-") and isinstance(doc, dict):
            owner[name] = doc.get("id", name)
            if isinstance(doc.get("artifact"), str):
                owner[os.path.basename(doc["artifact"])] = owner[name]
    bad: dict[str, list[str]] = {}
    for name in sorted(reference.keys() | files.keys()):
        who = owner.get(name, name)
        if name not in files:
            bad.setdefault(who, []).append(f"{name}: missing")
        elif name not in reference:
            bad.setdefault(who, []).append(f"{name}: not in the reference")
        else:
            diffs = compare(files[name], reference[name], rel_tol, name)
            doc = files[name]
            if isinstance(doc, dict) and name.startswith("job-") and doc.get("status") != "pass":
                diffs.append(f"{name}: status {doc.get('status')!r}")
            if diffs:
                bad.setdefault(who, []).extend(diffs)
    return bad
