"""Recorded oracle for what a serve session emits.

``tests/data/serve_oracle.jsonl`` holds one JSON line per case below:
every registry scheduler over two seeded op streams, one with default
parameters and one opened with explicit ``params``.  The streams mix
same-time arrivals, ``advance`` ops, jobs given by ``laxity`` and two
rejected ops (a duplicate id and an advance into the past).  Each case
records:

* every op's output records as the bytes ``encode_record`` makes of
  them, grouped per op (a rejected op records its error instead);
* the tenant's final live-telemetry snapshot;
* for the five paper schedulers, the written trace with the wall-clock
  fields (``ts``, ``wall_s``) removed and each wall-time histogram
  reduced to its count.  The trace is written once at close, and again
  streamed: flushed after every op and after every 7 ops.

Every field must be reproduced exactly (``==``): the served stream is
the protocol, so a change that moves one byte of it shows here.

Recapture, on purpose only, with::

    PYTHONPATH=src python tests/test_serve_oracle.py
"""

from __future__ import annotations

import json
import tempfile
from functools import cache
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.obs.live import TenantTelemetry
from repro.schedulers.registry import scheduler_names
from repro.serve.protocol import ProtocolError, encode_record
from repro.serve.session import TenantSession

ORACLE_PATH = Path(__file__).parent / "data" / "serve_oracle.jsonl"
TENANT = "o1"

#: The paper's schedulers: their cases also pin the written trace.
PAPER = frozenset({"batch", "batch+", "cdb", "epoch-batch", "profit"})

#: Explicit ``open`` parameters per scheduler (the second stream).
PARAMS: dict[str, dict[str, Any]] = {
    "cdb": {"alpha": 2.0, "base": 0.5},
    "epoch-batch": {"period": 2.5},
    "greedy-cover": {"theta": 0.25},
    "profit": {"k": 3.0},
    "random": {"seed": 11},
    "wait-scale": {"beta": 0.5, "piggyback": False},
}


def op_stream(seed: int, n: int = 48) -> list[dict[str, Any]]:
    """A seeded op stream for one tenant, ending with ``close``.

    About a third of the jobs arrive at the same time as the op before
    them; about one job in six is followed by an ``advance``; odd ids
    give ``laxity`` instead of ``deadline``.  Halfway through come a
    duplicate id and an advance into the past, both rejected.
    """
    rng = np.random.default_rng(seed)
    ops: list[dict[str, Any]] = []
    last = 0.0
    for i in range(n):
        if i and rng.random() < 0.3:
            arrival = last
        else:
            arrival = round(last + float(rng.exponential(1.5)), 2)
        length = round(float(rng.uniform(0.5, 4.0)), 2)
        laxity = 0.0 if rng.random() < 0.2 else round(float(rng.uniform(0, 6)), 2)
        op: dict[str, Any] = {
            "op": "job", "tenant": TENANT, "id": i, "arrival": arrival,
            "length": length,
        }
        if i % 2:
            op["laxity"] = laxity
        else:
            op["deadline"] = round(arrival + laxity, 2)
        ops.append(op)
        last = arrival
        if rng.random() < 0.17:
            last = round(last + float(rng.uniform(0, 4)), 2)
            ops.append({"op": "advance", "tenant": TENANT, "t": last})
        if i == n // 2:
            ops.append(dict(ops[0]))
            ops.append({"op": "advance", "tenant": TENANT, "t": last - 1.0})
    ops.append({"op": "close", "tenant": TENANT})
    return ops


def _cases() -> dict[str, tuple[str, dict[str, Any], int]]:
    cases: dict[str, tuple[str, dict[str, Any], int]] = {}
    for k, name in enumerate(scheduler_names()):
        cases[f"{name}/default"] = (name, {}, 100 + k)
        cases[f"{name}/params"] = (name, PARAMS.get(name, {}), 200 + k)
    return cases


CASES = _cases()


def _trace_rows(path: str) -> list[dict[str, Any]]:
    """A written trace without its wall-clock fields."""
    rows = []
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        row.pop("ts", None)
        attrs = row.get("attrs")
        if isinstance(attrs, dict):
            attrs.pop("wall_s", None)
        if row.get("kind") == "metrics":
            hists = row["data"]["histograms"]
            for name in list(hists):
                if name.startswith("span."):
                    hists[name] = {"count": hists[name]["count"]}
        rows.append(row)
    return rows


def observe(
    case_id: str, *, trace: bool = True, flush_every: int = 0
) -> dict[str, Any]:
    """Replay one case through a fresh session; JSON-normalised.

    ``trace=False`` replays without a trace, the daemon's default: the
    outputs and telemetry must not depend on it.  ``flush_every=n``
    flushes the trace after every ``n`` ops, as the daemon does at its
    checkpoint cadence; 0 writes it once at close.
    """
    scheduler, params, seed = CASES[case_id]
    telemetry = TenantTelemetry(TENANT)
    session = TenantSession(
        TENANT, scheduler=scheduler, params=params, telemetry=telemetry,
        trace=trace,
    )
    outputs: list[Any] = [[encode_record(r).decode() for r in session.hello()]]
    with tempfile.TemporaryDirectory() as tmp:
        for i, op in enumerate(op_stream(seed), start=1):
            try:
                records = session.apply(op)
            except (ProtocolError, SimulationError) as exc:
                outputs.append({"error": f"{type(exc).__name__}: {exc}"})
            else:
                outputs.append([encode_record(r).decode() for r in records])
            if flush_every and i % flush_every == 0 and op["op"] != "close":
                session.flush_trace(tmp)
        observed: dict[str, Any] = {
            "ops": outputs,
            "telemetry": telemetry.snapshot(),
        }
        if trace and scheduler in PAPER:
            observed["trace"] = _trace_rows(session.write_trace(tmp))
    normalised: dict[str, Any] = json.loads(json.dumps(observed))
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
    assert sorted(_load_oracle()) == sorted(CASES)


def test_streams_exercise_what_they_claim():
    ops = op_stream(CASES["batch+/default"][2])
    kinds = [op["op"] for op in ops]
    assert kinds.count("advance") >= 3 and kinds[-1] == "close"
    arrivals = [op["arrival"] for op in ops if op["op"] == "job"]
    assert len(arrivals) > len(set(arrivals))  # same-time arrivals
    errors = [
        o for o in _load_oracle()["batch+/default"]["ops"]
        if isinstance(o, dict)
    ]
    assert len(errors) == 2


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_matches_recorded_oracle(case_id):
    expected = _load_oracle()[case_id]
    got = observe(case_id)
    assert got["ops"] == expected["ops"]
    assert got["telemetry"] == expected["telemetry"]
    assert got.get("trace") == expected.get("trace")


@pytest.mark.parametrize("flush_every", [1, 7])
@pytest.mark.parametrize(
    "case_id", sorted(c for c, (name, _, _) in CASES.items() if name in PAPER)
)
def test_streamed_trace_matches_recorded_oracle(case_id, flush_every):
    """A trace flushed as it goes finishes with the recorded rows."""
    expected = _load_oracle()[case_id]
    got = observe(case_id, flush_every=flush_every)
    assert got["ops"] == expected["ops"]
    assert got["trace"] == expected["trace"]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_untraced_session_matches_recorded_oracle(case_id):
    expected = _load_oracle()[case_id]
    got = observe(case_id, trace=False)
    assert got["ops"] == expected["ops"]
    assert got["telemetry"] == expected["telemetry"]


def _write_oracle() -> None:
    with ORACLE_PATH.open("w") as fh:
        for case_id in sorted(CASES):
            row = {"case": case_id, **observe(case_id)}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_oracle()
