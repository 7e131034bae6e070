"""Innocent-looking helpers that read clairvoyant state.

No scheduler class lives here, so a one-file check has nothing to say
about this module — the functions just take "some object" and read its
``length``.  Only the whole-program taint analysis connects them to the
non-clairvoyant caller in :mod:`laundered_pkg.sched`.
"""

from __future__ import annotations


def peek(job) -> float:
    """Directly reads the hidden processing length."""
    return job.length


def effective_weight(job, scale: float = 2.0) -> float:
    """One more hop: the leak survives an intermediate call."""
    return peek(job) * scale
