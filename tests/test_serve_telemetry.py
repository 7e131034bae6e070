"""The daemon's telemetry plane end to end.

Covers the wiring the unit tests in ``test_obs_live.py`` cannot: the
``stats`` op carrying a telemetry section, the read-only HTTP listener
(Prometheus text + JSON snapshots), ``repro obs top --once`` against a
live daemon, the merged multi-tenant trace, and the post-hoc
``summarize`` / ``explain`` reconciliation of the scraped ratio.

Same conventions as ``test_serve_daemon.py``: no pytest-asyncio, so
each test wraps its scenario in ``asyncio.run`` with an outer timeout;
blocking HTTP fetches from the test run in ``asyncio.to_thread`` so
the daemon's event loop keeps serving.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main
from repro.obs.explain import explain_trace
from repro.obs.jsonl import read_jsonl
from repro.obs.aggregate import summarize_trace
from repro.obs.top import fetch_snapshot, render_top
from repro.serve.daemon import MERGED_TRACE_NAME

from tests.test_serve_daemon import (
    Client,
    job_line,
    run_async,
    start_daemon,
    stop_daemon,
)

TIMEOUT = 60.0


async def _start_with_telemetry(tmp_path, **kwargs):
    """Daemon with a telemetry listener on an OS-assigned port."""
    daemon, task, sock = await start_daemon(
        tmp_path, telemetry_listen=("127.0.0.1", 0), **kwargs
    )
    assert daemon.telemetry_address is not None
    port = int(daemon.telemetry_address.rsplit(":", 1)[1])
    return daemon, task, sock, f"127.0.0.1:{port}"


async def _feed_two_tenants(client, jobs=25):
    """Interleave two tenants' tight-window streams, then close both."""
    for i in range(jobs):
        arrival = float(i)
        for tenant in ("alpha", "beta"):
            await client.send(job_line(tenant, i, arrival, arrival + 3.0, 2.0))
    for tenant in ("alpha", "beta"):
        await client.send({"op": "close", "tenant": tenant})
        await client.recv_until(
            lambda r: r.get("kind") == "serve.closed" and r.get("tenant") == tenant
        )


class TestStatsOp:
    def test_stats_carries_telemetry_section(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path)
            client = await Client.connect(sock)
            await _feed_two_tenants(client)
            await client.send({"op": "stats"})
            seen = await client.recv_until(
                lambda r: r.get("kind") == "serve.stats"
            )
            stats = seen[-1]
            telemetry = stats["telemetry"]
            assert telemetry["kind"] == "telemetry"
            alpha = telemetry["tenants"]["alpha"]
            assert alpha["jobs"]["completed"] == 25
            assert alpha["span"] > 0.0
            assert alpha["ratio"] >= 1.0
            assert telemetry["aggregate"]["tenants"] == 2
            assert telemetry["daemon"]["draining"] is False
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())

    def test_stats_disarmed_reports_disabled(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path, telemetry=False)
            client = await Client.connect(sock)
            await client.send({"op": "stats"})
            seen = await client.recv_until(
                lambda r: r.get("kind") == "serve.stats"
            )
            telemetry = seen[-1]["telemetry"]
            assert telemetry == {
                "kind": "telemetry", "enabled": False, "tenants": {},
            }
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())


class TestListener:
    def test_snapshot_and_metrics_endpoints(self, tmp_path):
        async def scenario():
            daemon, task, sock, connect = await _start_with_telemetry(tmp_path)
            client = await Client.connect(sock)
            await _feed_two_tenants(client)
            snap = await asyncio.to_thread(fetch_snapshot, connect)
            assert set(snap["tenants"]) == {"alpha", "beta"}
            assert snap["tenants"]["alpha"]["opt_lb"]["value"] > 0.0

            def scrape_metrics():
                import http.client

                host, port = connect.rsplit(":", 1)
                conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
                try:
                    conn.request("GET", "/metrics")
                    response = conn.getresponse()
                    return response.status, response.read().decode()
                finally:
                    conn.close()

            status, text = await asyncio.to_thread(scrape_metrics)
            assert status == 200
            assert 'repro_tenant_span{tenant="alpha"} ' in text
            assert "repro_daemon_lines_in_total" in text
            assert text.endswith("\n")
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())

    def test_top_once_json_and_text(self, tmp_path):
        async def scenario():
            daemon, task, sock, connect = await _start_with_telemetry(tmp_path)
            client = await Client.connect(sock)
            await _feed_two_tenants(client)
            snap = await asyncio.to_thread(fetch_snapshot, connect)
            frame = render_top(snap)
            assert "alpha" in frame and "beta" in frame
            assert "max_ratio=" in frame
            # The CLI's --once --format json path is this snapshot verbatim.
            assert json.loads(json.dumps(snap)) == snap
            await client.close()
            await stop_daemon(daemon, task)
            return snap

        snap = run_async(scenario())
        assert snap["tenants"]["alpha"]["ratio"] >= 1.0

    def test_listener_absent_without_config(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path)
            assert daemon.telemetry_address is None
            await stop_daemon(daemon, task)

        run_async(scenario())

    def test_fetch_snapshot_rejects_bad_address(self):
        with pytest.raises(ValueError):
            fetch_snapshot("no-port")


class TestReconciliation:
    """Scrape → drain → post-hoc summarize/explain must agree."""

    def test_scraped_ratio_matches_explain_replay(self, tmp_path):
        trace_dir = tmp_path / "traces"

        async def scenario():
            daemon, task, sock, connect = await _start_with_telemetry(
                tmp_path, trace_dir=str(trace_dir)
            )
            client = await Client.connect(sock)
            await _feed_two_tenants(client)
            snap = await asyncio.to_thread(fetch_snapshot, connect)
            await client.close()
            await stop_daemon(daemon, task)
            return snap

        snap = run_async(scenario())
        for tenant in ("alpha", "beta"):
            scraped = snap["tenants"][tenant]
            explanation = explain_trace(
                read_jsonl(trace_dir / f"{tenant}.trace.jsonl")
            )
            row = explanation.telemetry[tenant]
            assert row["monotone"] is True
            assert row["consistent"] is True
            assert row["span"] == pytest.approx(scraped["span"])
            assert row["live_lb"] == pytest.approx(scraped["opt_lb"]["value"])
            assert row["ratio"] == pytest.approx(scraped["ratio"])
            assert row["live_lb"] <= row["reference_lb"] + 1e-9
            assert explanation.lb_monotone is True
            assert explanation.lb_consistent is True

    def test_merged_trace_summarizes_per_tenant(self, tmp_path):
        trace_dir = tmp_path / "traces"

        async def scenario():
            daemon, task, sock, _ = await _start_with_telemetry(
                tmp_path, trace_dir=str(trace_dir)
            )
            client = await Client.connect(sock)
            await _feed_two_tenants(client)
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())
        merged = read_jsonl(trace_dir / MERGED_TRACE_NAME)
        summary = summarize_trace(merged)
        assert set(summary.tenants) == {"alpha", "beta"}
        for tenant in ("alpha", "beta"):
            per_tenant = summarize_trace(
                read_jsonl(trace_dir / f"{tenant}.trace.jsonl")
            )
            merged_row = summary.tenants[tenant]
            solo_row = per_tenant.tenants[tenant]
            assert merged_row["span"] == pytest.approx(solo_row["span"])
            assert merged_row["jobs"] == solo_row["jobs"]
            assert merged_row["decisions"] == solo_row["decisions"]


class TestCliFlags:
    def test_serve_cli_rejects_bad_telemetry_spec(self, capsys):
        assert main(["serve", "--telemetry", "nonsense", "--stdio"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_no_telemetry_flag_disarms(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path, telemetry=False)
            assert daemon.live is None
            await stop_daemon(daemon, task)

        run_async(scenario())

    def test_env_disarms(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")

        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path)
            assert daemon.live is None
            await stop_daemon(daemon, task)

        run_async(scenario())
