"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core import Instance
from repro.lint import LintReport, default_target, lint_paths


@pytest.fixture(scope="session")
def shipped_lint_report() -> LintReport:
    """One lint run of the shipped package with every rule, shared by the
    tests that assert the tree is clean."""
    return lint_paths([default_target()])


@pytest.fixture
def simple_instance() -> Instance:
    """Four jobs mixing laxity, overlap potential and lengths (μ = 3)."""
    return Instance.from_triples(
        [
            (0, 5, 2),  # J0: a=0 d=5  p=2
            (1, 4, 3),  # J1: a=1 d=5  p=3
            (2, 0, 1),  # J2: a=2 d=2  p=1 (rigid)
            (6, 3, 2),  # J3: a=6 d=9  p=2
        ],
        name="simple",
    )


@pytest.fixture
def serial_instance() -> Instance:
    """Jobs that can never overlap: each arrives after the previous one's
    latest completion."""
    return Instance.from_triples(
        [(0, 1, 2), (4, 1, 2), (8, 1, 2)], name="serial"
    )


@pytest.fixture
def batchable_instance() -> Instance:
    """Jobs that can all be started together at t=4 (common window point)."""
    return Instance.from_triples(
        [(0, 4, 3), (1, 4, 2), (2, 4, 3), (3, 4, 1)], name="batchable"
    )


def feasible(schedule) -> bool:
    """Whether every start lies within its job's window (bool helper)."""
    try:
        schedule.validate()
        return True
    except Exception:
        return False
