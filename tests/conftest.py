"""Shared fixtures.

The Legendre evaluators (1200-point tables) and the full verification
batteries are the expensive objects in this suite, so they are built once
per session and shared between the module tests and the acceptance tests.
"""

from __future__ import annotations

import pytest

from growthcalc import (
    LFunctionEvaluator,
    bell_series,
    iterated_exp_sqrt,
    kondratiev_streit,
    legendre,
    legendre_sequence,
    verify_function,
)

CATALOG_IDS = ("ks0", "ks025", "ks05", "g2", "g3")


def build_catalog():
    return {
        "ks0": kondratiev_streit(0.0),
        "ks025": kondratiev_streit(0.25),
        "ks05": kondratiev_streit(0.5),
        "g2": iterated_exp_sqrt(2),
        "g3": iterated_exp_sqrt(3),
    }


@pytest.fixture(autouse=True)
def _fresh_sequences():
    """Each test solves its own sequences: ``legendre_sequence`` keeps its
    tables by value of ``(spec, n_max)``, so a table kept from an earlier
    test would pass a spy on the solver by."""
    legendre._sequence.cache_clear()


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture(scope="session")
def u2():
    return bell_series(2)


@pytest.fixture(scope="session")
def tables60(catalog):
    return {fid: legendre_sequence(spec, 60) for fid, spec in catalog.items()}


@pytest.fixture(scope="session")
def evaluators(catalog):
    return {
        fid: LFunctionEvaluator.from_spec(spec) for fid, spec in catalog.items()
    }


@pytest.fixture(scope="session")
def batteries(catalog, evaluators):
    """Full 12-check verification reports for every catalog function."""
    return {
        fid: verify_function(spec, evaluator=evaluators[fid])
        for fid, spec in catalog.items()
    }
