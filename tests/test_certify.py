"""Unit tests for competitive-ratio certification brackets."""

from __future__ import annotations

import pytest

from repro.analysis import OptBracket, RatioBracket, bracket_optimum, measure_ratio
from repro.core import Instance, Job
from repro.offline import exact_optimal_span
from repro.schedulers import BatchPlus, Eager, Profit
from repro.schedulers.registry import make_scheduler
from repro.workloads import poisson_instance, small_integral_instance


class TestBracketOptimum:
    def test_empty_instance(self):
        br = bracket_optimum(Instance([]))
        assert br.exact and br.lower == br.upper == 0.0

    def test_small_integral_is_exact(self):
        inst = small_integral_instance(6, seed=0)
        br = bracket_optimum(inst)
        assert br.method == "exact"
        assert br.lower == br.upper == pytest.approx(exact_optimal_span(inst))

    def test_small_float_uses_float_solver(self):
        inst = Instance(
            [Job(0, 0.0, 2.5, 1.25), Job(1, 0.5, 3.0, 0.75)], name="float"
        )
        br = bracket_optimum(inst)
        assert br.method == "exact-float"
        assert br.width == 0.0

    def test_large_instance_brackets(self):
        inst = poisson_instance(100, seed=0)
        br = bracket_optimum(inst)
        assert br.method == "bounds"
        assert br.lower <= br.upper
        assert not br.exact

    def test_bracket_contains_truth_when_both_available(self):
        for seed in range(6):
            inst = small_integral_instance(6, seed=seed)
            opt = exact_optimal_span(inst)
            br = bracket_optimum(inst)
            assert br.lower - 1e-9 <= opt <= br.upper + 1e-9


class TestMeasureRatio:
    def test_exact_ratio_point(self):
        inst = small_integral_instance(6, seed=1)
        rb = measure_ratio(BatchPlus(), inst)
        assert rb.exact
        assert rb.lower == pytest.approx(rb.upper)
        assert rb.lower >= 1.0 - 1e-9

    def test_bracket_ordering(self):
        inst = poisson_instance(80, seed=2)
        rb = measure_ratio(Profit(), inst)
        assert rb.lower <= rb.upper
        assert rb.lower >= 1.0 - 1e-6 or not rb.exact

    def test_respects_theorem_bound(self):
        for seed in range(6):
            inst = small_integral_instance(6, seed=seed)
            rb = measure_ratio(BatchPlus(), inst)
            assert rb.upper <= (inst.mu + 1) + 1e-9

    def test_clairvoyance_defaults(self):
        inst = small_integral_instance(5, seed=3)
        # Profit requires clairvoyance; measure_ratio must handle it.
        rb = measure_ratio(Profit(), inst)
        assert rb.span > 0

    def test_empty_instance_ratio_is_one(self):
        """0/0 -> 1.0 at both ends, the GridResult.ratio convention."""
        rb = measure_ratio(make_scheduler("batch+"), Instance([]))
        assert rb.lower == rb.upper == 1.0

    def test_positive_span_over_zero_reference_is_inf(self):
        rb = RatioBracket(span=2.0, opt=OptBracket(0.0, 0.0, "exact"))
        assert rb.lower == rb.upper == float("inf")
        half = RatioBracket(span=2.0, opt=OptBracket(0.0, 4.0, "bounds"))
        assert (half.lower, half.upper) == (0.5, float("inf"))

    def test_str_forms(self):
        inst = small_integral_instance(5, seed=4)
        assert "exact" in str(measure_ratio(Eager(), inst))
        big = poisson_instance(60, seed=0)
        assert "[" in str(measure_ratio(Eager(), big))


class TestLpStrengthening:
    def test_use_lp_never_weakens(self):
        from repro.workloads import WorkloadSpec, generate

        inst = generate(
            WorkloadSpec(n=20, arrival_rate=0.8, laxity_scale=1.0, integral=True),
            seed=5,
        )
        plain = bracket_optimum(inst)
        lp = bracket_optimum(inst, use_lp=True)
        assert lp.lower >= plain.lower - 1e-9
        assert lp.upper == plain.upper

    def test_lp_method_tag_when_it_binds(self):
        """Find an instance where the LP strictly improves the bracket and
        check the method tag flips."""
        from repro.workloads import WorkloadSpec, generate

        for seed in range(20):
            inst = generate(
                WorkloadSpec(
                    n=20, arrival_rate=0.8, laxity_scale=1.0, integral=True
                ),
                seed=seed,
            )
            plain = bracket_optimum(inst)
            if plain.exact:
                continue
            lp = bracket_optimum(inst, use_lp=True)
            if lp.lower > plain.lower + 1e-9:
                assert lp.method == "bounds+lp"
                return
        pytest.skip("no strictly-improving instance in this seed range")
