"""Correctness gates.  Each returns a list of failure messages (empty = pass).

:func:`self_check` feeds every gate a deliberately corrupted reference and
fails the run if any gate stays silent, so a gate that stopped comparing
anything cannot pass unnoticed.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9


def records(served: dict[str, list[bytes]], reference: dict[str, list[bytes]]) -> list[str]:
    """Each tenant's served lines equal the reference replay byte for byte."""
    bad = []
    for tenant in sorted(set(served) | set(reference)):
        got = served.get(tenant, [])
        want = reference.get(tenant, [])
        if got == want:
            continue
        at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        bad.append(
            f"tenant {tenant}: record {at} differs ({len(got)} served, {len(want)} expected): "
            f"{got[at][:120] if at < len(got) else b'<missing>'!r} vs "
            f"{want[at][:120] if at < len(want) else b'<none>'!r}"
        )
    return bad


def spans(closed: dict[str, float], batch: dict[str, float]) -> list[str]:
    """Every ``serve.closed`` span equals ``simulate()`` on the same jobs."""
    return [
        f"tenant {t}: served span {closed.get(t)!r} != batch span {batch[t]!r}"
        for t in sorted(batch)
        if closed.get(t) != batch[t]
    ]


def stats(record: dict, emitted: dict[str, int]) -> list[str]:
    """After restore, every tenant is closed with the reference ``emitted``."""
    tenants = record.get("tenants", {})
    bad = []
    for t, want in sorted(emitted.items()):
        entry = tenants.get(t)
        if entry is None:
            bad.append(f"tenant {t} missing after restore")
        elif not entry.get("closed") or entry.get("emitted") != want:
            bad.append(
                f"tenant {t} after restore: closed={entry.get('closed')} "
                f"emitted={entry.get('emitted')} (expected closed, {want})"
            )
    return bad


def e1_ratio(ratio: float, bound: float, label: str) -> list[str]:
    """The §3.1 adversary forces at least Theorem 3.3's ratio."""
    if ratio >= bound * (1 - REL_TOL):
        return []
    return [f"E1 {label}: ratio {ratio:.6f} below the lower bound {bound:.6f}"]


def theorem_bound(scheduler: str, mu: float, params: dict) -> "float | None":
    """The proven competitive ratio of a paper scheduler (None: no theorem)."""
    if scheduler == "batch+":
        return mu + 1
    if scheduler == "batch":
        return 2 * mu + 1
    if scheduler == "cdb":
        a = params["alpha"]
        return 3 * a + 4 + 2 / (a - 1)
    if scheduler == "profit":
        k = params["k"]
        return 2 * k + 2 + 1 / (k - 1)
    return None


def cell(c: dict) -> list[str]:
    """One certified cell: ordered bracket; an exact cell meets its bound."""
    bad = []
    label = f"{c['scheduler']} on {c['instance']}"
    if not c["lower"] <= c["upper"] or math.isnan(c["lower"]):
        bad.append(f"{label}: bracket lower {c['lower']} > upper {c['upper']}")
    if c["exact"]:
        bound = theorem_bound(c["scheduler"], c["mu"], c["params"])
        ratio = c["span"] / c["upper"] if c["upper"] > 0 else math.inf
        if bound is not None and ratio > bound * (1 + REL_TOL):
            bad.append(f"{label}: exact ratio {ratio:.6f} exceeds the theorem bound {bound:.6f}")
    return bad


def repeats(item: dict) -> list[str]:
    """Every timed pass of an E1 run or a cell gave the first pass's result."""
    if item["repeats_agree"]:
        return []
    return [f"{item['scheduler']} on {item.get('instance', 'E1')}: passes disagree"]


def self_check(reference: "dict[str, list[bytes]] | None" = None,
               batch: "dict[str, float] | None" = None,
               emitted: "dict[str, int] | None" = None) -> list[str]:
    """Corrupt each reference once; every gate must report it."""
    misses = []
    if reference:
        tenant = sorted(reference)[0]
        bad = {t: list(v) for t, v in reference.items()}
        last = bad[tenant][-1]
        bad[tenant][-1] = last[:-2] + bytes([last[-2] ^ 1]) + last[-1:]
        if not records(reference, bad):
            misses.append("records gate missed a flipped byte")
        bad = {t: list(v) for t, v in reference.items()}
        bad[tenant].pop()
        if not records(reference, bad):
            misses.append("records gate missed a dropped record")
    if batch:
        tenant = sorted(batch)[0]
        if not spans(dict(batch), dict(batch, **{tenant: batch[tenant] + 1.0})):
            misses.append("span gate missed a wrong span")
    if emitted:
        tenant = sorted(emitted)[0]
        rec = {"tenants": {t: {"closed": True, "emitted": n} for t, n in emitted.items()}}
        if not stats(rec, dict(emitted, **{tenant: emitted[tenant] + 1})):
            misses.append("restore gate missed a wrong emitted count")
    if not e1_ratio(1.5, 1.6, "self-check"):
        misses.append("E1 gate missed a ratio below its bound")
    exact = {"scheduler": "batch+", "instance": "self-check", "mu": 2.0, "params": {},
             "exact": True, "span": 10.0, "lower": 2.0, "upper": 2.0}
    if not cell(exact):
        misses.append("theorem gate missed an exact ratio above mu+1")
    if not cell(dict(exact, exact=False, lower=3.0, upper=2.0)):
        misses.append("bracket gate missed lower > upper")
    if not repeats(dict(exact, repeats_agree=False)):
        misses.append("repeat gate missed passes that disagree")
    return misses
