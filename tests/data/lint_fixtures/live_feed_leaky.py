"""RL012 fixture: a live-telemetry feed that allocates on the hot path.

Linted under a virtual ``src/repro/obs/live.py`` path — the per-record
``_handle_*`` sections below materialise per-record objects and gather
attributes off record objects (RL012), which the real telemetry plane
must never do: it runs once per engine record on every armed session.
"""

from repro.core import Job  # noqa


class LeakyTelemetry:
    def _handle_release(self, attrs):
        # Per-record object construction inside the feed.
        attrs = dict(attrs)
        job = Job(  # RL012
            id=attrs["job"],
            arrival=attrs["arrival"],
            deadline=attrs["deadline"],
            length=attrs["length"],
        )
        return job

    def _handle_start(self, records):
        # Attribute-gather comprehension over record objects.
        starts = [record.ts for record in records]  # RL012
        return starts

    def render_snapshot(self, rows):
        # Not a hot section: rendering happens per scrape, not per record.
        return [Job(id=r, arrival=0.0, deadline=1.0, length=1.0) for r in rows]
