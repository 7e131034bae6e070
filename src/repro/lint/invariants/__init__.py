"""Lifecycle and temporal-invariant certification (RL014-RL016).

This package builds on the :mod:`repro.lint.dataflow` fixpoint engine to
certify the contracts that keep the engine honest:

=======  ==============================  =======================================
Code     Name                            Certifies
=======  ==============================  =======================================
RL014    lifecycle-typestate             PENDING -> RUNNING -> DONE transitions
                                         happen in legal event phases; deadline
                                         starts carry the backstop decision
RL015    decision-vocabulary-            scheduler decisions and the
         exhaustiveness                  ``DECISION_RULES`` vocabulary match in
                                         both directions
RL016    time-monotonicity               heap-push keys and clock writes are
                                         provably monotone non-decreasing
=======  ==============================  =======================================
"""

from __future__ import annotations

from . import monotone, typestate, vocabulary  # noqa: F401  (registration)

__all__ = ["monotone", "typestate", "vocabulary"]
