"""Regenerate the stored reference outputs in ``perfbench/reference/``.

Run from the repository root at the commit whose outputs are the reference:

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

``lseries.json`` holds ``log L_u(r)`` for every workload kind on the
lseries-query radius grid, with a flag per radius for whether the Laplace
rule answered; ``suite.json`` holds every artifact of one
``growthcalc suite`` run on the shipped manifest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

import compare
import worker


def lseries_reference() -> dict:
    import growthcalc as gc

    grid = worker.lseries_grid()
    log_l, laplace = {}, {}
    for kind, spec in worker.lseries_specs(gc).items():
        ev = gc.LFunctionEvaluator.from_spec(spec)
        values, flags = [], []
        for r in grid:
            try:
                values.append(gc.l_function(ev, r))
                flags.append("0")
            except gc.InsufficientTableError:
                values.append(gc.l_function_integral(spec, r))
                flags.append("1")
            if values[-1] != gc.l_function_wide(ev, r):
                raise SystemExit(f"{kind}: l_function_wide disagrees at r={r!r}")
        log_l[kind], laplace[kind] = values, "".join(flags)
    return {
        "grid": {"r_min": worker.LSERIES_R_MIN, "r_max": worker.LSERIES_R_MAX,
                 "points": worker.LSERIES_GRID, "spacing": "log"},
        "log_l": log_l,
        "laplace": laplace,
    }


def suite_reference() -> dict:
    from growthcalc import cli

    config = os.path.join(worker.ROOT, "manifests", "acceptance.json")
    out_dir = os.path.join(worker.ROOT, ".perfbench", "reference-suite")
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["suite", "--config", config, "--out", out_dir])
    if code != 0:
        raise SystemExit(f"growthcalc suite exited with {code}")
    files = compare.read_artifacts(out_dir)
    shutil.rmtree(out_dir)
    # The artifact field names the --out directory; only the file name is compared.
    for doc in files.values():
        if isinstance(doc, dict) and isinstance(doc.get("artifact"), str):
            doc["artifact"] = os.path.basename(doc["artifact"])
    with open(config, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"manifest_sha256": digest, "files": files}


def main() -> int:
    ref_dir = os.path.join(worker.HERE, "reference")
    os.makedirs(ref_dir, exist_ok=True)
    for name, build in (("lseries.json", lseries_reference), ("suite.json", suite_reference)):
        with open(os.path.join(ref_dir, name), "w", encoding="utf-8") as fh:
            json.dump(build(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
