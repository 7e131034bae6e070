"""Seeded job model, protocol op streams and the reference replay.

Every workload draws jobs from one model:

* arrivals in simulation time are Poisson with mean gap
  ``beta = E[p] / UTIL`` (the arrival-rate rule of the DRL scheduling
  ``Narrator``: mean job length over target utilisation);
* lengths are uniform on ``[1, 10]``;
* each deadline is ``arrival + 2 * length``.

The reference replay drives the library's own ``TenantSession`` in this
process, op by op, exactly as the daemon's tenant worker does, and keeps
each output record as the bytes ``encode_record`` makes of it.  It runs
once per invocation, before any timed window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LENGTH_LO = 1.0
LENGTH_HI = 10.0
#: Mean number of jobs alive at once; sets the Poisson gap E[p] / UTIL.
UTIL = 2.0
MEAN_GAP = (LENGTH_LO + LENGTH_HI) / 2.0 / UTIL
#: Decimal places kept in the generated job fields (short op lines).
DIGITS = 4

_DUMPS = json.JSONEncoder(separators=(",", ":")).encode


def job_triples(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """``n`` jobs of the model as ``(arrival, deadline, length)``."""
    arrivals = np.cumsum(rng.exponential(MEAN_GAP, n))
    lengths = rng.uniform(LENGTH_LO, LENGTH_HI, n)
    out = []
    for a, p in zip(arrivals.tolist(), lengths.tolist()):
        a = round(a, DIGITS)
        p = round(p, DIGITS)
        out.append((a, round(a + 2.0 * p, DIGITS), p))
    return out


@dataclass
class OpStream:
    """One connection's worth of ops plus what the reference says of them."""

    #: ``(tenant, scheduler)`` in tenant order.
    tenants: list[tuple[str, str]]
    #: Encoded op lines, in send order.
    lines: list[bytes]
    #: Tenant each op addresses.
    op_tenant: list[str]
    #: Each tenant's jobs as ``(id, arrival, deadline, length)``.
    jobs: dict[str, list[tuple[int, float, float, float]]]
    #: Filled by :func:`reference_replay`.
    records: dict[str, list[bytes]] = field(default_factory=dict)
    #: Output records each op causes (reference).
    op_records: list[int] = field(default_factory=list)
    #: ``emitted`` counter each tenant ends with (reference).
    emitted: dict[str, int] = field(default_factory=dict)

    @property
    def expected_records(self) -> int:
        return sum(len(v) for v in self.records.values())


def make_stream(
    seed: int,
    tenants: list[tuple[str, str]],
    jobs_per_tenant: int,
    *,
    explicit_open: bool,
) -> OpStream:
    """Interleave the tenants' job streams in global arrival order.

    Each tenant's stream is independent; merging them by arrival time
    is how one front end would forward many tenants' arrivals.  Every
    tenant ends with a ``close``; with ``explicit_open`` each one starts
    with an ``open`` naming its scheduler.
    """
    rng = np.random.default_rng(seed)
    jobs: dict[str, list[tuple[int, float, float, float]]] = {}
    merged: list[tuple[float, int, int, str]] = []
    for t_idx, (name, _) in enumerate(tenants):
        triples = job_triples(rng, jobs_per_tenant)
        jobs[name] = [(i, a, d, p) for i, (a, d, p) in enumerate(triples)]
        merged.extend((a, t_idx, i, name) for i, (a, _, _) in enumerate(triples))
    merged.sort()
    lines: list[bytes] = []
    op_tenant: list[str] = []

    def put(op: dict, tenant: str) -> None:
        lines.append((_DUMPS(op) + "\n").encode())
        op_tenant.append(tenant)

    if explicit_open:
        for name, sched in tenants:
            put({"op": "open", "tenant": name, "scheduler": sched}, name)
    for _, _, i, name in merged:
        _, a, d, p = jobs[name][i]
        put(
            {"op": "job", "tenant": name, "id": i, "arrival": a,
             "deadline": d, "length": p},
            name,
        )
    for name, _ in tenants:
        put({"op": "close", "tenant": name}, name)
    return OpStream(tenants, lines, op_tenant, jobs)


def reference_replay(stream: OpStream, trace_dir: "str | None") -> None:
    """Replay ``stream`` through in-process sessions; fill its reference.

    Mirrors the daemon's per-op output: an implicit open emits the
    session's ``serve.open`` before the job's records, and a ``close``
    under ``--trace-dir`` is followed by the ``serve.trace`` record.
    """
    from repro.serve.protocol import encode_record
    from repro.serve.session import TenantSession

    schedulers = dict(stream.tenants)
    sessions: dict[str, TenantSession] = {}
    records: dict[str, list[bytes]] = {name: [] for name in schedulers}
    counts: list[int] = []
    for line, tenant in zip(stream.lines, stream.op_tenant):
        op = json.loads(line)
        outs: list[dict] = []
        session = sessions.get(tenant)
        if op["op"] == "open":
            session = TenantSession(tenant, scheduler=schedulers[tenant])
            sessions[tenant] = session
            outs = session.hello()
        else:
            if session is None:
                session = TenantSession(tenant)
                sessions[tenant] = session
                outs.extend(session.hello())
            outs.extend(session.apply(op))
            if op["op"] == "close" and trace_dir is not None:
                path = str(Path(trace_dir) / f"{tenant}.trace.jsonl")
                outs.append({"kind": "serve.trace", "tenant": tenant, "path": path})
        records[tenant].extend(encode_record(r) for r in outs)
        counts.append(len(outs))
    stream.records = records
    stream.op_records = counts
    stream.emitted = {name: s.emitted for name, s in sessions.items()}


def batch_spans(stream: OpStream) -> dict[str, float]:
    """Each tenant's span from a one-shot ``simulate()`` of its jobs."""
    from repro.core.engine import simulate
    from repro.core.job import Instance, Job
    from repro.schedulers.registry import SCHEDULERS, make_scheduler

    spans = {}
    for name, sched in stream.tenants:
        inst = Instance(
            [Job(id=i, arrival=a, deadline=d, length=p) for i, a, d, p in stream.jobs[name]]
        )
        clairvoyant = SCHEDULERS[sched].requires_clairvoyance
        result = simulate(make_scheduler(sched), inst, clairvoyant=clairvoyant)
        spans[name] = float(result.span)
    return spans
