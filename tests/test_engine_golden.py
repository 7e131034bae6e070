"""Golden-trace regression tests for the optimized simulator.

``tests/data/golden_traces.json`` was captured from the *pre-optimization*
engine (dataclass-event heap, getattr-per-event dispatch, per-job
admission).  The optimized engine — raw tuple heap, dispatch table,
hoisted hooks, batch admission, incremental pending/running indexes —
must reproduce every run **event for event**: same record kinds, same
times, same job ids, same details, same event counts, same spans.

If an engine change breaks these on purpose (a deliberate semantic
change), recapture the fixture and say so loudly in the PR: same-time
event ordering is what the paper's §3.1/§4.1 constructions hinge on.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.adversaries import (
    ClairvoyantLowerBoundAdversary,
    NonClairvoyantLowerBoundAdversary,
    batch_tightness_instance,
    geometric_profile,
)
from repro.core import Simulator, Trace, simulate
from repro.core.job import Instance
from repro.obs import NULL_RECORDER, TraceRecorder
from repro.schedulers import Batch, BatchPlus, Eager, Lazy, make_scheduler
from repro.workloads import WorkloadSpec, generate

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: The fixed instance all static golden runs use (do not edit: the
#: fixture was captured against exactly these jobs).
GOLDEN_INSTANCE = Instance.from_triples(
    [(0, 2, 1), (0.5, 1, 3), (1, 4, 2), (2, 0, 1), (3, 3, 5), (3, 3, 0.5), (9, 1, 2)],
    name="golden-7",
)

SCHEDULERS = {"Batch": Batch, "BatchPlus": BatchPlus, "Eager": Eager, "Lazy": Lazy}


def as_rows(trace) -> list[list]:
    return [[r.time, r.kind.value, r.job_id, r.detail] for r in trace]


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_static_golden_trace_event_for_event(name):
    trace = Trace()
    result = simulate(SCHEDULERS[name](), GOLDEN_INSTANCE, recorder=trace)
    expected = GOLDEN[name]
    assert as_rows(trace) == expected["records"]
    assert result.span == expected["span"]
    assert result.events_processed == expected["events"]


def test_adversarial_golden_trace_event_for_event():
    """Adaptive run: RELEASE/ASSIGN/ADVERSARY_WAKEUP records included."""
    adv = NonClairvoyantLowerBoundAdversary(4.0, geometric_profile(2, 3))
    trace = Trace()
    result = simulate(Batch(), adversary=adv, clairvoyant=False, recorder=trace)
    expected = GOLDEN["adversarial/Batch"]
    assert as_rows(trace) == expected["records"]
    assert result.span == expected["span"]
    assert result.events_processed == expected["events"]


def test_trace_off_matches_trace_on():
    """Tracing must be observation only: identical schedule either way."""
    trace = Trace()
    with_trace = simulate(BatchPlus(), GOLDEN_INSTANCE, recorder=trace)
    without = simulate(BatchPlus(), GOLDEN_INSTANCE, recorder=NULL_RECORDER)
    assert len(trace) and without.recorder is None
    assert without.span == with_trace.span
    assert without.events_processed == with_trace.events_processed
    assert without.schedule.starts() == with_trace.schedule.starts()


def test_pending_running_indexes_match_schedule():
    """The incremental ctx.pending()/ctx.running() indexes stay honest."""

    class Probe(Eager):
        name = "probe"

        def __init__(self):
            super().__init__()
            self.snapshots = []

        def on_arrival(self, ctx, job):
            super().on_arrival(ctx, job)
            pending_ids = [v.id for v in ctx.pending()]
            running_ids = [v.id for v in ctx.running()]
            assert not set(pending_ids) & set(running_ids)
            self.snapshots.append((ctx.now, pending_ids, running_ids))

    probe = Probe()
    result = simulate(probe, GOLDEN_INSTANCE)
    assert probe.snapshots  # hook ran
    # Eager starts on arrival, so nothing may linger pending afterwards.
    final = result.schedule.starts()
    assert set(final) == set(GOLDEN_INSTANCE.job_ids)


# ---------------------------------------------------------------------------
# Recorded oracle: the engine's full observable output, case by case
# ---------------------------------------------------------------------------
#
# ``tests/data/engine_oracle.jsonl`` holds one JSON line per case below,
# captured from the scalar reference engine: trace rows, starts, span,
# event count, the resolved jobs and — for armed runs — every obs record
# (minus the wall-clock ``wall_s``) with the final counters and gauges.
# The engine must reproduce each line exactly, and the same case run
# with no recorder at all must reproduce its starts, span, event count
# and jobs (the disarmed paths: schedulers' vectorised starts, the fused
# same-time assign wave).  A deliberate semantic
# change recaptures the file, on purpose only, with
#
#     PYTHONPATH=src python tests/test_engine_golden.py
#
# and says which fields moved, and why, in the change description.

ORACLE_PATH = Path(__file__).parent / "data" / "engine_oracle.jsonl"

#: The five instrumented paper schedulers.
PAPER = ["batch", "batch+", "cdb", "profit", "epoch-batch"]
#: Schedulers with live per-job hooks (no cohort path).
BASELINES = ["eager", "lazy"]
#: Non-clairvoyant subset, eligible for the §3.1 adversary.
NONCLAIRVOYANT = ["batch", "batch+", "epoch-batch"]


def e2_style_instance(n: int = 30, seed: int = 3) -> Instance:
    """Seeded synthetic workload with deadline cohorts (E2 flavour)."""
    return generate(
        WorkloadSpec(n=n, laxity_scale=2.0, length_high=10.0), seed=seed
    )


def integral_instance(n: int = 60) -> Instance:
    """Integral times: arrivals, deadlines and completions share instants,
    so same-time cohorts of every gatherable kind form."""
    return Instance.from_triples(
        [(i // 4, i % 3, 1 + i % 2) for i in range(n)], name="integral"
    )


def _recorders(armed: bool, traced: bool) -> tuple[Any, Any, Any]:
    """(engine recorder, core trace, obs recorder) for one oracle run.

    Traced, the engine's recorder is the core trace, wrapping a
    ``TraceRecorder`` when the case is armed; untraced, the run has no
    recorder at all.
    """
    if not traced:
        return NULL_RECORDER, None, None
    rec = TraceRecorder() if armed else None
    trace = Trace(rec)
    return trace, trace, rec


def _run(
    name: str,
    instance: Instance,
    *,
    traced: bool = True,
    armed: bool = False,
    **kwargs: Any,
):
    sched = make_scheduler(name)
    recorder, trace, rec = _recorders(armed, traced)
    result = simulate(
        sched,
        instance,
        clairvoyant=type(sched).requires_clairvoyance,
        recorder=recorder,
        **kwargs,
    )
    return result, trace, rec


def _adversarial(
    name: str,
    adversary,
    *,
    traced: bool = True,
    armed: bool = False,
    clairvoyant: bool = False,
    **kwargs: Any,
):
    recorder, trace, rec = _recorders(armed, traced)
    result = simulate(
        make_scheduler(name),
        adversary=adversary,
        clairvoyant=clairvoyant,
        recorder=recorder,
        **kwargs,
    )
    return result, trace, rec


def _streamed(name: str, instance: Instance, *, traced: bool = True):
    """Feed jobs one at a time in arrival order, the serve-session way."""
    sched = make_scheduler(name)
    recorder, trace, rec = _recorders(True, traced)
    sim = Simulator(
        sched,
        instance=Instance([], name=f"stream/{instance.name}"),
        clairvoyant=type(sched).requires_clairvoyance,
        recorder=recorder,
    )
    sim.start_stream()
    for job in sorted(instance.jobs, key=lambda j: (j.arrival, j.id)):
        sim.feed([job])
        sim.advance(job.arrival, inclusive=False)
    sim.advance(sim.now + 1.0)  # one inclusive mid-stream advance
    return sim.finish_stream(), trace, rec


def _oracle_cases() -> dict[str, tuple[Callable[..., Any], dict[str, str]]]:
    """Case id -> (run builder taking ``traced``, environment overrides)."""
    cases: dict[str, tuple[Callable[..., Any], dict[str, str]]] = {}

    def add(case_id: str, build: Callable[..., Any], **env: str) -> None:
        cases[case_id] = (build, env)

    for name in PAPER + BASELINES:
        for seed in (0, 3):
            add(
                f"static/{name}/seed{seed}",
                lambda traced, n=name, s=seed: _run(
                    n, e2_style_instance(seed=s), traced=traced
                ),
            )
    for name in ("batch", "batch+"):
        for m in (1, 8):
            add(
                f"tightness/{name}/m{m}",
                lambda traced, n=name, m=m: _run(
                    n, batch_tightness_instance(m=m, mu=5.0).instance,
                    traced=traced,
                ),
            )
    for name in NONCLAIRVOYANT:
        for k in (1, 2):
            add(
                f"e1/{name}/k{k}",
                lambda traced, n=name, k=k: _adversarial(
                    n,
                    NonClairvoyantLowerBoundAdversary(
                        5.0, geometric_profile(k, 6)
                    ),
                    traced=traced,
                ),
            )
    add(
        "e4/profit",
        lambda traced: _adversarial(
            "profit", ClairvoyantLowerBoundAdversary(8), clairvoyant=True,
            traced=traced,
        ),
    )
    for name in PAPER:
        add(
            f"armed/{name}",
            lambda traced, n=name: _run(
                n, e2_style_instance(), traced=traced, armed=True
            ),
        )
        add(
            f"armed-tightness/{name}",
            lambda traced, n=name: _run(
                n, batch_tightness_instance(m=8, mu=5.0).instance,
                traced=traced, armed=True,
            ),
        )
        add(
            f"armed-integral/{name}",
            lambda traced, n=name: _run(
                n, integral_instance(), traced=traced, armed=True
            ),
        )
    for name in ("batch", "batch+"):
        add(
            f"armed-e1/{name}",
            lambda traced, n=name: _adversarial(
                n, NonClairvoyantLowerBoundAdversary(5.0, geometric_profile(2, 6)),
                traced=traced, armed=True,
            ),
        )
    for name in NONCLAIRVOYANT:
        add(
            f"strict/{name}",
            lambda traced, n=name: _run(
                n, e2_style_instance(), traced=traced, strict=True
            ),
        )
        add(
            f"strict-env/{name}",
            lambda traced, n=name: _run(n, e2_style_instance(), traced=traced),
            REPRO_STRICT="1",
        )
    add(
        "strict-e1/batch",
        lambda traced: _adversarial(
            "batch",
            NonClairvoyantLowerBoundAdversary(5.0, geometric_profile(1, 4)),
            traced=traced,
            strict=True,
        ),
    )
    for name in PAPER + BASELINES:
        add(
            f"empty/{name}",
            lambda traced, n=name: _run(
                n, Instance.from_triples([], name="empty"), traced=traced
            ),
        )
        add(
            f"single/{name}",
            lambda traced, n=name: _run(
                n, Instance.from_triples([(0.0, 2.0, 1.5)], name="single"),
                traced=traced,
            ),
        )
        add(
            f"stream/{name}",
            lambda traced, n=name: _streamed(
                n, e2_style_instance(seed=0), traced=traced
            ),
        )
    add(
        "empty-armed/batch",
        lambda traced: _run(
            "batch", Instance.from_triples([], name="empty"),
            traced=traced, armed=True,
        ),
    )
    return cases


ORACLE_CASES = _oracle_cases()


def observe(outcome: Any) -> dict[str, Any]:
    """One run's observable output, JSON-normalised (tuples -> lists)."""
    result, trace, rec = outcome
    out: dict[str, Any] = {}
    if trace is not None:
        out["trace"] = as_rows(trace)
    out.update(
        starts=sorted(result.schedule.starts().items()),
        span=result.span,
        events=result.events_processed,
        jobs=[
            [j.id, j.arrival, j.deadline, j.length, j.size]
            for j in result.instance
        ],
    )
    if rec is not None:
        out["records"] = [
            [
                r.kind,
                r.name,
                {k: v for k, v in r.attrs.items() if k != "wall_s"},
            ]
            for r in rec.records
        ]
        out["counters"] = rec.metrics.counters
        out["gauges"] = rec.metrics.gauges
    normalised: dict[str, Any] = json.loads(json.dumps(out))
    return normalised


def _load_oracle() -> dict[str, dict[str, Any]]:
    lines = ORACLE_PATH.read_text().splitlines()
    rows = [json.loads(line) for line in lines if line.strip()]
    return {row.pop("case"): row for row in rows}


def test_oracle_covers_every_case():
    assert sorted(_load_oracle()) == sorted(ORACLE_CASES)


@pytest.mark.parametrize("case_id", sorted(ORACLE_CASES))
def test_engine_matches_recorded_oracle(case_id, monkeypatch):
    build, env = ORACLE_CASES[case_id]
    monkeypatch.delenv("REPRO_STRICT", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    expected = _load_oracle()[case_id]
    assert observe(build(traced=True)) == expected


@pytest.mark.parametrize("case_id", sorted(ORACLE_CASES))
def test_disarmed_run_matches_recorded_oracle(case_id, monkeypatch):
    build, env = ORACLE_CASES[case_id]
    monkeypatch.delenv("REPRO_STRICT", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    expected = _load_oracle()[case_id]
    got = observe(build(traced=False))
    assert got == {key: expected[key] for key in got}


def _write_oracle() -> None:
    os.environ.pop("REPRO_STRICT", None)
    with ORACLE_PATH.open("w") as fh:
        for case_id in sorted(ORACLE_CASES):
            build, env = ORACLE_CASES[case_id]
            os.environ.update(env)
            row = {"case": case_id, **observe(build(traced=True))}
            for key in env:
                del os.environ[key]
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    _write_oracle()
