"""Property-based tests: every scheduler on random instances.

These are the library's core safety net:

* every scheduler produces a *feasible* schedule on arbitrary instances;
* every scheduler's span is at least the certified lower bound;
* the theorem bounds (μ+1 for Batch+, 2μ+1 for Batch, the parametric CDB
  and Profit bounds) hold against the exact optimum on small instances;
* a μ = 1 stratum (every job the same length, the setting Liu, Khuller
  and Tang study) where Batch+ stays within 2·OPT.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import batch_upper_bound, batchplus_ratio, cdb_ratio, profit_ratio
from repro.core import Instance, Job, simulate
from repro.offline import exact_optimal_span, span_lower_bound
from repro.schedulers import (
    Batch,
    BatchPlus,
    ClassifyByDurationBatchPlus,
    Doubler,
    Eager,
    GreedyCover,
    Lazy,
    Profit,
    RandomStart,
    WaitScale,
)

ALL_SCHEDULERS = [
    (Eager, {}),
    (Lazy, {}),
    (RandomStart, {"seed": 0}),
    (Batch, {}),
    (BatchPlus, {}),
    (ClassifyByDurationBatchPlus, {}),
    (Profit, {}),
    (Doubler, {}),
    (WaitScale, {"beta": 0.5}),
    (GreedyCover, {"theta": 0.6}),
]


@st.composite
def instances(draw, max_jobs=12, integral=False, max_t=12):
    """Random feasible instances with bounded integer-ish parameters."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        if integral:
            a = draw(st.integers(min_value=0, max_value=max_t))
            lax = draw(st.integers(min_value=0, max_value=4))
            p = draw(st.integers(min_value=1, max_value=4))
        else:
            a = draw(st.floats(min_value=0, max_value=max_t, allow_nan=False))
            lax = draw(st.floats(min_value=0, max_value=6, allow_nan=False))
            p = draw(st.floats(min_value=0.1, max_value=5, allow_nan=False))
        jobs.append(Job(id=i, arrival=float(a), deadline=float(a + lax), length=float(p)))
    return Instance(jobs, name="hyp")


@st.composite
def uniform_length_instances(draw, max_jobs=7, max_t=8):
    """Random instances whose jobs all share one integral length (μ = 1)."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    p = float(draw(st.integers(min_value=1, max_value=4)))
    jobs = []
    for i in range(n):
        a = draw(st.integers(min_value=0, max_value=max_t))
        lax = draw(st.integers(min_value=0, max_value=6))
        jobs.append(Job(id=i, arrival=float(a), deadline=float(a + lax), length=p))
    return Instance(jobs, name="hyp-uniform")


class TestFeasibility:
    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_all_schedulers_feasible(self, inst):
        for cls, kwargs in ALL_SCHEDULERS:
            sched = cls(**kwargs)
            result = simulate(
                sched, inst, clairvoyant=cls.requires_clairvoyance
            )
            result.schedule.validate()

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_span_at_least_lower_bound(self, inst):
        lb = span_lower_bound(inst)
        for cls, kwargs in ALL_SCHEDULERS:
            result = simulate(
                cls(**kwargs), inst, clairvoyant=cls.requires_clairvoyance
            )
            assert result.span >= lb - 1e-6

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_span_at_most_serialised_work(self, inst):
        """No scheduler can exceed total work + total idle forced by
        arrival gaps; a crude but universal sanity bound: span <= horizon."""
        for cls, kwargs in ALL_SCHEDULERS:
            result = simulate(
                cls(**kwargs), inst, clairvoyant=cls.requires_clairvoyance
            )
            assert result.span <= inst.horizon + 1e-6


class TestTheoremBounds:
    @given(instances(max_jobs=7, integral=True, max_t=8))
    @settings(max_examples=25, deadline=None)
    def test_batchplus_mu_plus_one(self, inst):
        opt = exact_optimal_span(inst)
        result = simulate(BatchPlus(), inst)
        assert result.span <= batchplus_ratio(inst.mu) * opt + 1e-6

    @given(instances(max_jobs=7, integral=True, max_t=8))
    @settings(max_examples=25, deadline=None)
    def test_batch_two_mu_plus_one(self, inst):
        opt = exact_optimal_span(inst)
        result = simulate(Batch(), inst)
        assert result.span <= batch_upper_bound(inst.mu) * opt + 1e-6

    @given(
        instances(max_jobs=6, integral=True, max_t=8),
        st.floats(min_value=1.2, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_cdb_parametric_bound(self, inst, alpha):
        opt = exact_optimal_span(inst)
        result = simulate(
            ClassifyByDurationBatchPlus(alpha=alpha), inst, clairvoyant=True
        )
        assert result.span <= cdb_ratio(alpha) * opt + 1e-6

    @given(
        instances(max_jobs=6, integral=True, max_t=8),
        st.floats(min_value=1.2, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_profit_parametric_bound(self, inst, k):
        opt = exact_optimal_span(inst)
        result = simulate(Profit(k=k), inst, clairvoyant=True)
        assert result.span <= profit_ratio(k) * opt + 1e-6

    @given(uniform_length_instances())
    @settings(max_examples=40, deadline=None)
    def test_batchplus_within_twice_opt_at_mu_one(self, inst):
        """Equal lengths make μ = 1, so Theorem 3.5 gives 2·OPT."""
        assert inst.mu == 1.0
        opt = exact_optimal_span(inst)
        result = simulate(BatchPlus(), inst)
        assert result.span <= 2.0 * opt + 1e-9

    @given(instances(max_jobs=8, integral=True))
    @settings(max_examples=25, deadline=None)
    def test_batchplus_beats_or_ties_serialisation(self, inst):
        """Batch+'s span never exceeds (μ+1)·Σ p(flag) (Theorem 3.5's
        intermediate inequality)."""
        result = simulate(BatchPlus(), inst)
        flags = result.scheduler.flag_job_ids
        flag_work = sum(inst[j].known_length for j in flags)
        assert result.span <= (inst.mu + 1) * flag_work + 1e-6


class TestDeterminism:
    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_repeat_runs_identical(self, inst):
        """The engine and every deterministic scheduler replay exactly."""
        for cls, kwargs in ALL_SCHEDULERS:
            r1 = simulate(cls(**kwargs), inst, clairvoyant=cls.requires_clairvoyance)
            r2 = simulate(cls(**kwargs), inst, clairvoyant=cls.requires_clairvoyance)
            assert r1.schedule.starts() == r2.schedule.starts()
