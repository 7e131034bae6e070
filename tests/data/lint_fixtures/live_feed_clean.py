"""RL012 fixture: the sanctioned live-telemetry idioms — no findings.

Linted under a virtual ``src/repro/obs/live.py`` path.  The per-record
``_handle_*`` sections mutate scalar aggregates and sorted primitive
lists (the incremental interval union / Pareto front), never per-record
objects, and never touch stdio.
"""

from bisect import bisect_left


class CleanTelemetry:
    def _handle_release(self, attrs):
        arrival = attrs["arrival"]
        length = attrs["length"]
        self.released += 1
        self.total_work += length
        lcs = self._lcs
        j = bisect_left(lcs, arrival + length)
        lcs.insert(j, arrival + length)
        return j

    def _handle_start(self, attrs):
        t = attrs["t"]
        if t > self.clock:
            self.clock = t
        self.started += 1

    def _handle_decision(self, rule):
        counts = self.decisions
        counts[rule] = counts.get(rule, 0) + 1
