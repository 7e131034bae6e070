"""The paper's batch path, run in a fresh process through the public API.

Usage: ``python perfbench/paper.py --seed N [--seconds S] [--setup-only]``
(the checkout's ``src`` must be on ``PYTHONPATH``).  Prints one JSON
object on stdout.

Phase E1: the §3.1 non-clairvoyant adversary at ``paper_profile(2)``
under Batch and Batch+ — the columnar engine's cohort path.

Phase certify: the paper's five schedulers through ``measure_ratio`` on
instances of the job model in ``perfbench/ops.py`` drawn from the seed:
small integral ones (exact OPT) and mid-size real-valued ones (bracketed
by the chain lower bound and the best offline heuristic).

The two phases alternate in passes until ``--seconds`` have gone by
(always at least one pass).  Every pass repeats the same calls, and each
call's wall and CPU time is kept per pass, so the caller can time each
unit of work by its fastest pass: interference from the rest of the host
only ever adds time.  Every pass must reproduce the first pass's results.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from repro.adversaries import NonClairvoyantLowerBoundAdversary, paper_profile  # noqa: E402
from repro.analysis import measure_ratio  # noqa: E402
from repro.core import engine  # noqa: E402
from repro.core.job import Instance, Job  # noqa: E402
from repro.schedulers.registry import make_scheduler  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.ops import job_triples  # noqa: E402

PAPER_SET = ("batch", "batch+", "cdb", "epoch-batch", "profit")
E1_MU = 5.0
E1_K = 2
#: (instances, jobs each, integral) — integral ones solve exactly.  Exact
#: solving time is heavy-tailed in the instance, so those stay small and
#: the mid-size bracketed ones, whose cost depends mostly on n, carry
#: most of the phase: the rate then varies little from seed to seed.
EXACT_SET = (80, 4, True)
BRACKET_SET = (20, 24, False)
E1_SCHEDULERS = ("batch", "batch+")
#: E1 runs per scheduler per pass.  An E1 run takes about half a second,
#: long enough that the host's interference lands in most of them, so E1
#: needs more samples than a cell to see a quiet moment.
E1_PER_PASS = 2


def instances(seed: int) -> list[Instance]:
    rng = np.random.default_rng(seed)
    out = []
    for count, n, integral in (EXACT_SET, BRACKET_SET):
        for idx in range(count):
            jobs = []
            for i, (a, d, p) in enumerate(job_triples(rng, n)):
                if integral:
                    a, p = float(round(a)), float(round(p))
                    d = a + 2 * p
                jobs.append(Job(id=i, arrival=a, deadline=d, length=p))
            kind = "int" if integral else "real"
            out.append(Instance(jobs, name=f"{kind}{n}-{idx}"))
    return out


def e1_pass(e1: list[dict]) -> None:
    """One E1 run per scheduler, appended to (or checked against) ``e1``."""
    for i, name in enumerate(E1_SCHEDULERS):
        adv = NonClairvoyantLowerBoundAdversary(E1_MU, paper_profile(E1_K))
        t0 = time.perf_counter()
        result = engine.simulate(make_scheduler(name), adversary=adv, clairvoyant=False)
        wall = time.perf_counter() - t0
        got = {"scheduler": name, "events": result.events_processed, "span": result.span,
               "opt_witness": adv.paper_optimal_schedule(result.instance).span}
        if i == len(e1):
            e1.append(dict(got, walls=[], repeats_agree=True))
        entry = e1[i]
        entry["walls"].append(wall)
        entry["repeats_agree"] &= all(entry[k] == v for k, v in got.items())


def certify_pass(insts: list[Instance], cells: list[dict]) -> None:
    """One ``measure_ratio`` per (instance, scheduler) cell, likewise."""
    i = 0
    for inst in insts:
        for name in PAPER_SET:
            sched = make_scheduler(name)
            c0 = time.process_time()
            t0 = time.perf_counter()
            rb = measure_ratio(sched, inst)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            got = {"scheduler": name, "instance": inst.name, "mu": inst.mu,
                   "params": {k: getattr(sched, k) for k in ("alpha", "k") if hasattr(sched, k)},
                   "exact": rb.exact, "method": rb.opt.method, "span": rb.span,
                   "lower": rb.opt.lower, "upper": rb.opt.upper}
            if i == len(cells):
                cells.append(dict(got, walls=[], cpus=[], repeats_agree=True))
            cell = cells[i]
            cell["walls"].append(wall)
            cell["cpus"].append(cpu)
            cell["repeats_agree"] &= all(cell[k] == v for k, v in got.items())
            i += 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    insts = instances(args.seed)
    ready = time.perf_counter()
    out: dict = {"started": STARTED, "ready": ready}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    e1: list[dict] = []
    cells: list[dict] = []
    passes = 0
    while passes == 0 or time.perf_counter() - ready < args.seconds:
        for _ in range(E1_PER_PASS):
            e1_pass(e1)
        certify_pass(insts, cells)
        passes += 1
    out.update(passes=passes, e1=e1, cells=cells)
    with open("/proc/self/status") as fh:
        out["hwm_mb"] = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
