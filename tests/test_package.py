"""The package namespace: ``import growthcalc`` loads each submodule on first
use of one of its names, and every name is looked up on its submodule."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import growthcalc
import test_surface
from growthcalc import legendre


def _fresh(code: str) -> str:
    """The standard output of ``code`` run in a new interpreter."""
    src = str(Path(growthcalc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_the_transforms_load_only_growth_and_legendre():
    loaded = _fresh(
        "import sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('growthcalc'))\n"
        "import growthcalc as gc\n"
        "print(loaded())\n"
        "spec = gc.kondratiev_streit(0.5)\n"
        "ev = gc.LFunctionEvaluator.from_spec(spec, 60)\n"
        "gc.legendre_table(spec, [0.5, 1.0]); gc.l_function_wide(ev, 2.0); gc.bidual(spec, 2.0)\n"
        "print(loaded())\n"
        "gc.fock\n"
        "print('growthcalc.fock' in sys.modules)\n")
    assert loaded.splitlines() == [
        "['growthcalc']", "['growthcalc', 'growthcalc.growth', 'growthcalc.legendre']", "True"]


def test_the_fock_norms_and_s_transform_do_not_load_the_measures():
    loaded = _fresh(
        "import sys\n"
        "import growthcalc as gc\n"
        "ev = gc.LFunctionEvaluator.from_spec(gc.kondratiev_streit(0.0), 60)\n"
        "gc.log_dual_norm(gc.ChaosSequence.exponential_vector(1.0, 60), ev.table)\n"
        "gc.s_transform_1d(gc.ChaosSequence.delta(3), 1.5)\n"
        "print(sorted(m for m in sys.modules if m.startswith('growthcalc')))\n")
    assert loaded == ("['growthcalc', 'growthcalc.fock', 'growthcalc.growth', "
                      "'growthcalc.inequality_lab', 'growthcalc.legendre']")


def test_every_export_is_its_defining_module_attribute():
    for module, names in growthcalc._EXPORTS.items():
        home = importlib.import_module(f"growthcalc.{module}")
        for name in names:
            obj = getattr(growthcalc, name)
            assert obj is getattr(home, name), name
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == home.__name__, name
    assert sorted(growthcalc._HOME) == growthcalc.__all__


def test_dir_and_star_import_give_every_export():
    namespace: dict = {}
    exec("from growthcalc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == growthcalc.__all__
    assert len(growthcalc.__all__) == test_surface.EXPORTS
    assert set(growthcalc.__all__) <= set(dir(growthcalc))


def test_a_name_patched_on_its_submodule_is_what_the_package_returns(monkeypatch):
    original = legendre.bidual

    def patched(*args):
        return original(*args)

    monkeypatch.setattr(legendre, "bidual", patched)
    assert growthcalc.bidual is patched
    monkeypatch.undo()
    assert growthcalc.bidual is original
    assert "bidual" not in vars(growthcalc)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        growthcalc.no_such_name
    with pytest.raises(ImportError):
        exec("from growthcalc import no_such_name", {})
