"""RL007 fixture package: a clairvoyance leak laundered across modules.

``sched.py`` declares ``requires_clairvoyance = False`` but routes every
pre-completion length read through :mod:`laundered_pkg.helpers`, a
leak no single-file view can see; the whole-program taint of RL007
follows it.  ``tests/test_lint_dataflow.py`` asserts two
things on this package:

* RL007 reports the laundered leak in ``sched.py``, with a witness in
  ``helpers.py``;
* the runtime :class:`~repro.core.engine.ClairvoyanceGuard` agrees —
  running :class:`laundered_pkg.sched.LaunderingScheduler` under strict
  mode raises :class:`~repro.core.ClairvoyanceError`.
"""
