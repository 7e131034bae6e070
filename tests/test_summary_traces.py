"""Unit tests for run summaries and the SWF trace bridge."""

from __future__ import annotations

import pytest

from repro.analysis import summarize_run
from repro.core import Instance, InvalidInstanceError, simulate
from repro.schedulers import BatchPlus, Profit
from repro.workloads import (
    poisson_instance,
    read_swf_instance,
    small_integral_instance,
    write_swf_instance,
)


class TestSummarizeRun:
    def test_fields_consistent(self):
        inst = poisson_instance(30, seed=2)
        result = simulate(BatchPlus(), inst)
        s = summarize_run(result)
        assert s.jobs == 30
        assert s.span == pytest.approx(result.span)
        assert s.parallelism == pytest.approx(inst.total_work / result.span)
        assert s.peak_concurrency >= 1
        assert s.busy_components >= 1
        assert s.flag_count == len(result.scheduler.flag_job_ids)

    def test_exact_certification_on_small_instance(self):
        inst = small_integral_instance(6, seed=1)
        result = simulate(BatchPlus(), inst)
        s = summarize_run(result)
        assert s.opt.exact
        assert s.ratio_lower == pytest.approx(s.ratio_upper)
        assert s.ratio_lower >= 1.0 - 1e-9

    def test_bracket_clamped_by_observed_span(self):
        """The observed run tightens the OPT upper bound, so the reported
        ratio lower bound is never below 1."""
        inst = poisson_instance(60, seed=4)
        result = simulate(Profit(), inst, clairvoyant=True)
        s = summarize_run(result)
        assert s.ratio_lower >= 1.0 - 1e-9
        assert s.ratio_upper >= s.ratio_lower

    def test_skip_certification(self):
        inst = poisson_instance(20, seed=0)
        result = simulate(BatchPlus(), inst)
        s = summarize_run(result, certify=False)
        assert s.opt.method == "skipped"
        out = s.render()
        assert "ratio" not in out
        assert "∞" not in out

    def test_empty_run_ratio_is_one(self):
        s = summarize_run(simulate(BatchPlus(), Instance([])))
        assert s.ratio_lower == s.ratio_upper == 1.0
        assert "competitive ratio (exact)" in s.render()

    def test_render(self):
        inst = small_integral_instance(5, seed=0)
        result = simulate(BatchPlus(), inst)
        out = summarize_run(result).render()
        assert "span" in out and "competitive ratio (exact)" in out


class TestSwfBridge:
    def test_round_trip_core_fields(self, tmp_path):
        inst = poisson_instance(12, seed=3)
        path = tmp_path / "w.swf"
        write_swf_instance(inst, path)
        back = read_swf_instance(path, laxity=("zero", 0.0))
        assert len(back) == 12
        for orig, loaded in zip(inst, back):
            assert loaded.arrival == pytest.approx(orig.arrival - inst.jobs[0].arrival + 0.0)
            assert loaded.known_length == pytest.approx(orig.known_length)

    def test_laxity_policies(self, tmp_path):
        path = tmp_path / "w.swf"
        path.write_text("0 0 0 10 1 -1 -1 1\n1 5 0 4 1 -1 -1 1\n")
        prop = read_swf_instance(path, laxity=("proportional", 0.5))
        assert prop[0].laxity == pytest.approx(5.0)
        const = read_swf_instance(path, laxity=("constant", 3.0))
        assert const[1].laxity == pytest.approx(3.0)
        rigid = read_swf_instance(path, laxity=("zero", 0.0))
        assert all(j.laxity == 0 for j in rigid)

    def test_comments_and_invalid_runtimes_skipped(self, tmp_path):
        path = tmp_path / "w.swf"
        path.write_text(
            "; header comment\n"
            "0 0 0 -1 1 -1 -1 1\n"   # unknown run time → skipped
            "1 2 0 5 1 -1 -1 1\n"
        )
        inst = read_swf_instance(path)
        assert len(inst) == 1
        assert inst[0].known_length == 5.0

    def test_submit_times_rebased(self, tmp_path):
        path = tmp_path / "w.swf"
        path.write_text("0 1000 0 2 1 -1 -1 1\n1 1010 0 2 1 -1 -1 1\n")
        inst = read_swf_instance(path)
        assert inst[0].arrival == 0.0
        assert inst[1].arrival == 10.0

    def test_size_divisor(self, tmp_path):
        path = tmp_path / "w.swf"
        path.write_text("0 0 0 5 4 -1 -1 4\n")
        inst = read_swf_instance(path, size_divisor=8.0)
        assert inst[0].size == pytest.approx(0.5)

    def test_max_jobs(self, tmp_path):
        path = tmp_path / "w.swf"
        path.write_text("\n".join(f"{i} {i} 0 1 1 -1 -1 1" for i in range(20)))
        assert len(read_swf_instance(path, max_jobs=5)) == 5

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "w.swf"
        path.write_text("0 0\n")
        with pytest.raises(InvalidInstanceError):
            read_swf_instance(path)

    def test_loaded_instance_schedulable(self, tmp_path):
        inst = poisson_instance(15, seed=7)
        path = tmp_path / "w.swf"
        write_swf_instance(inst, path)
        loaded = read_swf_instance(path, laxity=("proportional", 1.0))
        simulate(BatchPlus(), loaded).schedule.validate()
