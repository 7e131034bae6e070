"""Recorded oracle for the offline solvers, the bounds and the coverage
schedulers.

``tests/data/offline_oracle.jsonl`` holds one JSON line per case below:
the starts (and search counters) of ``exact``, ``exact_float``,
``beam``, seeded ``anneal``, ``placement_regrets`` and ``best_offline``;
the starts and span of ``doubler``, ``greedy-cover`` and ``wait-scale``
under several parameters; and the chain, mandatory and span lower
bounds.  Every field must be reproduced exactly (``==`` after a JSON
round trip, which keeps floats bit for bit).

The one tolerated difference is listed in :data:`ULP_CASES`: where some
job has laxity < p, the mandatory bound (and a span bound it decides)
may move by at most 1e-15 relative, because the recorded value summed
the union with NumPy and the incremental interval set rounds in another
order.

Recapture, on purpose only, with::

    PYTHONPATH=src python tests/test_offline_oracle.py
"""

from __future__ import annotations

import json
import math
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.analysis.whatif import placement_regrets
from repro.core import Instance, Job, simulate
from repro.offline import (
    anneal,
    beam_search_schedule,
    best_offline,
    chain_lower_bound,
    exact_optimal_schedule,
    exact_optimal_schedule_float,
    greedy_overlap,
    mandatory_lower_bound,
    span_lower_bound,
)
from repro.schedulers import Doubler, GreedyCover, WaitScale
from repro.schedulers.base import OnlineScheduler
from repro.workloads import WorkloadSpec, generate, small_integral_instance

ORACLE_PATH = Path(__file__).parent / "data" / "offline_oracle.jsonl"

#: Case ids whose mandatory/span bound may differ from the record by at
#: most ``ULP_REL`` relative (see the module docstring).
ULP_CASES = frozenset({"bounds/real5", "bounds/uniform2"})
ULP_REL = 1e-15
ULP_FIELDS = ("mandatory", "span")


def mixed_instance(n: int, seed: int, *, integral: bool) -> Instance:
    """Seeded jobs with zero-laxity windows, shared arrivals and jobs
    whose laxity is below their length (mandatory intervals)."""
    rng = np.random.default_rng(seed)
    horizon = max(2, n // 2)
    anchors = rng.uniform(0, horizon, size=4)
    jobs = []
    for i in range(n):
        if integral:
            a = float(rng.integers(0, horizon + 1))
            lax = float(rng.integers(0, 5)) if rng.random() < 0.75 else 0.0
            p = float(rng.integers(1, 5))
        else:
            shared = rng.random() < 0.3
            a = float(rng.choice(anchors)) if shared else float(rng.uniform(0, horizon))
            lax = float(rng.uniform(0, 6)) if rng.random() < 0.75 else 0.0
            p = float(rng.uniform(0.1, 5))
        jobs.append(Job(id=i, arrival=a, deadline=a + lax, length=p))
    kind = "int" if integral else "real"
    return Instance(jobs, name=f"mixed-{kind}(n={n}, seed={seed})")


def _starts(schedule: Any) -> list[list[float]]:
    return [[jid, s] for jid, s in sorted(schedule.starts().items())]


def _online(factory: Callable[[], OnlineScheduler], inst: Instance) -> dict[str, Any]:
    result = simulate(factory(), inst, clairvoyant=True)
    return {"starts": _starts(result.schedule), "span": result.span}


#: Coverage-scheduler configurations: label -> factory.
ONLINE: dict[str, Callable[[], OnlineScheduler]] = {
    "doubler": Doubler,
    "greedy-cover/0": lambda: GreedyCover(theta=0.0),
    "greedy-cover/0.5": lambda: GreedyCover(theta=0.5),
    "greedy-cover/0.8": lambda: GreedyCover(theta=0.8),
    "greedy-cover/1": lambda: GreedyCover(theta=1.0),
    "wait-scale/1/on": lambda: WaitScale(beta=1.0, piggyback=True),
    "wait-scale/0.5/on": lambda: WaitScale(beta=0.5, piggyback=True),
    "wait-scale/2/on": lambda: WaitScale(beta=2.0, piggyback=True),
    "wait-scale/1/off": lambda: WaitScale(beta=1.0, piggyback=False),
}


def _online_instances() -> dict[str, Instance]:
    out: dict[str, Instance] = {}
    for seed, n in enumerate((1, 2, 7, 30, 90, 160, 400)):
        out[f"int{seed}"] = mixed_instance(n, seed, integral=True)
        out[f"real{seed}"] = mixed_instance(n, 100 + seed, integral=False)
    out["rigid"] = generate(WorkloadSpec(n=60, laxity="zero"), seed=5)
    out["uniform"] = generate(
        WorkloadSpec(n=120, laxity="uniform", laxity_scale=3.0), seed=6
    )
    return out


def _bound_instances() -> dict[str, Instance]:
    out: dict[str, Instance] = {"empty": Instance([], name="empty")}
    for seed in range(12):
        n = (1, 3, 8, 24, 60, 200)[seed % 6]
        out[f"int{seed}"] = mixed_instance(n, 200 + seed, integral=True)
        out[f"real{seed}"] = mixed_instance(n, 300 + seed, integral=False)
    for seed in range(4):
        out[f"small{seed}"] = small_integral_instance(10, seed=seed, max_laxity=2)
        out[f"rigid{seed}"] = generate(WorkloadSpec(n=40, laxity="zero"), seed=seed)
        out[f"uniform{seed}"] = generate(
            WorkloadSpec(n=80, laxity="uniform", laxity_scale=0.5), seed=seed
        )
    return out


def _exact(inst: Instance) -> dict[str, Any]:
    result = exact_optimal_schedule(inst)
    return {
        "starts": _starts(result.schedule),
        "span": result.span,
        "nodes_explored": result.nodes_explored,
        "memo_hits": result.memo_hits,
    }


def _exact_float(inst: Instance) -> dict[str, Any]:
    result = exact_optimal_schedule_float(inst)
    return {
        "starts": _starts(result.schedule),
        "span": result.span,
        "nodes_explored": result.nodes_explored,
    }


def _bounds(inst: Instance) -> dict[str, Any]:
    return {
        "chain": chain_lower_bound(inst),
        "mandatory": mandatory_lower_bound(inst),
        "span": span_lower_bound(inst),
    }


def _regrets(inst: Instance) -> dict[str, Any]:
    regrets = placement_regrets(greedy_overlap(inst, "arrival"))
    return {
        "regrets": [
            [r.job_id, r.current_start, r.best_start, r.regret] for r in regrets
        ]
    }


def _oracle_cases() -> dict[str, Callable[[], dict[str, Any]]]:
    cases: dict[str, Callable[[], dict[str, Any]]] = {}
    for seed in range(30):
        inst = small_integral_instance(
            4 + seed % 6, seed=seed, max_arrival=12, max_laxity=1 + seed % 5
        )
        cases[f"exact/small{seed}"] = lambda i=inst: _exact(i)
    for seed in range(20):
        inst = small_integral_instance(
            5 + seed % 4, seed=700 + seed, max_arrival=6, max_laxity=8, max_length=5
        )
        cases[f"exact/wide{seed}"] = lambda i=inst: _exact(i)
    for seed in range(10):
        inst = mixed_instance(5 + seed % 5, 400 + seed, integral=True)
        cases[f"exact/mixed{seed}"] = lambda i=inst: _exact(i)
    for seed in range(30):
        inst = mixed_instance(2 + seed % 3, 500 + seed, integral=False)
        cases[f"exact_float/{seed}"] = lambda i=inst: _exact_float(i)
    for seed in range(12):
        integral = seed % 2 == 0
        inst = mixed_instance(6 + 4 * seed, 600 + seed, integral=integral)
        cases[f"beam/{seed}"] = lambda i=inst: {
            "starts": _starts(beam_search_schedule(i))
        }
        cases[f"beam-narrow/{seed}"] = lambda i=inst: {
            "starts": _starts(beam_search_schedule(i, width=2, branch=3))
        }
        cases[f"anneal/{seed}"] = lambda i=inst, s=seed: {
            "starts": _starts(
                anneal(greedy_overlap(i, "arrival"), iterations=300, seed=s)
            )
        }
        cases[f"regrets/{seed}"] = lambda i=inst: _regrets(i)
        cases[f"best_offline/{seed}"] = lambda i=inst: {
            "starts": _starts(best_offline(i))
        }
    for label, inst in _online_instances().items():
        for config, factory in ONLINE.items():
            cases[f"online/{config}/{label}"] = (
                lambda f=factory, i=inst: _online(f, i)
            )
    for label, inst in _bound_instances().items():
        cases[f"bounds/{label}"] = lambda i=inst: _bounds(i)
    return cases


ORACLE_CASES = _oracle_cases()


def observe(case_id: str) -> dict[str, Any]:
    """One case's output, JSON-normalised (tuples -> lists)."""
    normalised: dict[str, Any] = json.loads(json.dumps(ORACLE_CASES[case_id]()))
    return normalised


@cache
def _load_oracle() -> dict[str, dict[str, Any]]:
    rows = [
        json.loads(line)
        for line in ORACLE_PATH.read_text().splitlines()
        if line.strip()
    ]
    return {row.pop("case"): row for row in rows}


def test_oracle_covers_every_case():
    assert sorted(_load_oracle()) == sorted(ORACLE_CASES)


@pytest.mark.parametrize("case_id", sorted(ORACLE_CASES))
def test_matches_recorded_oracle(case_id):
    expected = dict(_load_oracle()[case_id])
    got = observe(case_id)
    if case_id in ULP_CASES:
        for field in ULP_FIELDS:
            assert math.isclose(
                got.pop(field), expected.pop(field), rel_tol=ULP_REL, abs_tol=0.0
            ), field
    assert got == expected


def test_ulp_cases_have_mandatory_intervals():
    """Only a job with laxity < p can move the mandatory bound."""
    instances = _bound_instances()
    for case_id in ULP_CASES:
        inst = instances[case_id.removeprefix("bounds/")]
        assert any(j.laxity < j.known_length for j in inst)


def _write_oracle() -> None:
    with ORACLE_PATH.open("w") as fh:
        for case_id in sorted(ORACLE_CASES):
            row = {"case": case_id, **observe(case_id)}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_oracle()
