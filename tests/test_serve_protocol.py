"""The serve line protocol: op parsing, job building, env knobs."""

from __future__ import annotations

import json

import pytest

from repro.serve.protocol import (
    CHECKPOINT_EVERY_ENV,
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_MAX_LINE,
    DEFAULT_QUEUE_SIZE,
    MAX_LINE_ENV,
    QUEUE_ENV,
    ProtocolError,
    checkpoint_every,
    encode_record,
    error_record,
    job_from_op,
    max_line_bytes,
    parse_op,
    queue_size,
)


class TestParseOp:
    def test_valid_job_op(self):
        op = parse_op(
            '{"op": "job", "tenant": "t1", "id": 1, "arrival": 0.0,'
            ' "deadline": 2.0, "length": 1.0}'
        )
        assert op["op"] == "job"
        assert op["tenant"] == "t1"

    def test_bytes_input_decoded(self):
        op = parse_op(b'{"op": "stats"}')
        assert op["op"] == "stats"

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="not UTF-8"):
            parse_op(b'{"op": "stats"\xff}')

    def test_blank_line_rejected(self):
        with pytest.raises(ProtocolError, match="blank"):
            parse_op("   \n")

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            parse_op("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="not a JSON object"):
            parse_op("[1, 2, 3]")

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_op('{"op": "frobnicate"}')
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_op('{"tenant": "t"}')  # missing op entirely

    def test_tenant_required_for_tenant_ops(self):
        for op in ("open", "job", "advance", "close"):
            with pytest.raises(ProtocolError, match="requires a tenant"):
                parse_op(json.dumps({"op": op}))

    def test_tenant_optional_for_checkpoint(self):
        assert parse_op('{"op": "checkpoint"}')["op"] == "checkpoint"
        assert (
            parse_op('{"op": "checkpoint", "tenant": "t"}')["tenant"] == "t"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "../escape",  # path traversal
            ".hidden",  # leading dot (dotfile / '..' family)
            "a/b",  # separator
            "",  # empty
            "x" * 65,  # too long
            "sp ace",
            42,  # not a string
        ],
    )
    def test_bad_tenant_names_rejected(self, bad):
        with pytest.raises(ProtocolError, match="invalid tenant name"):
            parse_op(json.dumps({"op": "close", "tenant": bad}))

    @pytest.mark.parametrize(
        "good", ["t1", "tenant.v2", "a-b_c", "X" * 64, "_private"]
    )
    def test_good_tenant_names_accepted(self, good):
        op = parse_op(json.dumps({"op": "close", "tenant": good}))
        assert op["tenant"] == good

    def test_advance_requires_numeric_t(self):
        with pytest.raises(ProtocolError, match="numeric 't'"):
            parse_op('{"op": "advance", "tenant": "t"}')
        with pytest.raises(ProtocolError, match="numeric 't'"):
            parse_op('{"op": "advance", "tenant": "t", "t": "soon"}')
        with pytest.raises(ProtocolError, match="numeric 't'"):
            parse_op('{"op": "advance", "tenant": "t", "t": true}')
        assert (
            parse_op('{"op": "advance", "tenant": "t", "t": 3}')["t"] == 3
        )

    def test_error_carries_tenant_when_known(self):
        with pytest.raises(ProtocolError) as exc:
            parse_op('{"op": "advance", "tenant": "t9"}')
        assert exc.value.tenant == "t9"


class TestJobFromOp:
    def _op(self, **fields):
        base = {
            "op": "job", "tenant": "t", "id": 1, "arrival": 0.0,
            "deadline": 2.0, "length": 1.0,
        }
        base.update(fields)
        return {k: v for k, v in base.items() if v is not ...}

    def test_basic_job(self):
        job = job_from_op(self._op())
        assert (job.id, job.arrival, job.deadline, job.length, job.size) == (
            1, 0.0, 2.0, 1.0, 1.0,
        )

    def test_laxity_replaces_deadline(self):
        job = job_from_op(self._op(deadline=..., laxity=3.0, arrival=1.0))
        assert job.deadline == 4.0

    def test_deadline_wins_over_laxity(self):
        job = job_from_op(self._op(deadline=5.0, laxity=99.0))
        assert job.deadline == 5.0

    def test_size_optional(self):
        assert job_from_op(self._op(size=2.5)).size == 2.5
        assert job_from_op(self._op()).size == 1.0

    def test_missing_id_rejected(self):
        with pytest.raises(ProtocolError, match="integer 'id'"):
            job_from_op(self._op(id=...))
        with pytest.raises(ProtocolError, match="integer 'id'"):
            job_from_op(self._op(id="one"))
        with pytest.raises(ProtocolError, match="integer 'id'"):
            job_from_op(self._op(id=True))  # bool is not an id

    def test_missing_arrival_rejected(self):
        with pytest.raises(ProtocolError, match="requires 'arrival'"):
            job_from_op(self._op(arrival=...))

    def test_missing_window_rejected(self):
        with pytest.raises(ProtocolError, match="'deadline' or 'laxity'"):
            job_from_op(self._op(deadline=...))

    def test_missing_length_rejected(self):
        with pytest.raises(ProtocolError, match="requires 'length'"):
            job_from_op(self._op(length=...))

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ProtocolError, match="must be a number"):
            job_from_op(self._op(arrival="now"))
        with pytest.raises(ProtocolError, match="must be a number"):
            job_from_op(self._op(length=True))

    def test_invalid_job_becomes_protocol_error(self):
        # deadline before arrival: the Job constructor rejects it and the
        # protocol layer re-raises with the tenant attached.
        with pytest.raises(ProtocolError) as exc:
            job_from_op(self._op(arrival=5.0, deadline=1.0))
        assert exc.value.tenant == "t"
        with pytest.raises(ProtocolError):
            job_from_op(self._op(length=-1.0))


class TestEnvKnobs:
    def test_defaults(self, monkeypatch):
        for env in (QUEUE_ENV, MAX_LINE_ENV, CHECKPOINT_EVERY_ENV):
            monkeypatch.delenv(env, raising=False)
        assert queue_size() == DEFAULT_QUEUE_SIZE
        assert max_line_bytes() == DEFAULT_MAX_LINE
        assert checkpoint_every() == DEFAULT_CHECKPOINT_EVERY

    def test_env_values(self, monkeypatch):
        monkeypatch.setenv(QUEUE_ENV, "8")
        monkeypatch.setenv(MAX_LINE_ENV, "128")
        monkeypatch.setenv(CHECKPOINT_EVERY_ENV, "0")
        assert queue_size() == 8
        assert max_line_bytes() == 128
        assert checkpoint_every() == 0  # 0 disables

    def test_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv(QUEUE_ENV, "8")
        assert queue_size(32) == 32

    def test_bad_env_values_rejected(self, monkeypatch):
        monkeypatch.setenv(QUEUE_ENV, "many")
        with pytest.raises(ValueError, match="must be an integer"):
            queue_size()
        monkeypatch.setenv(QUEUE_ENV, "0")
        with pytest.raises(ValueError, match=">= 1"):
            queue_size()

    def test_bad_overrides_rejected(self):
        with pytest.raises(ValueError):
            queue_size(0)
        with pytest.raises(ValueError):
            max_line_bytes(32)  # below the 64-byte floor
        with pytest.raises(ValueError):
            checkpoint_every(-1)


class TestRecords:
    def test_encode_record_compact_jsonl(self):
        line = encode_record({"kind": "start", "t": 1.0})
        assert line.endswith(b"\n")
        assert b" " not in line.strip()
        assert json.loads(line) == {"kind": "start", "t": 1.0}

    def test_error_record_shape(self):
        rec = error_record("boom", tenant="t1", op="job")
        assert rec == {
            "kind": "serve.error", "error": "boom", "tenant": "t1",
            "op": "job",
        }
        assert "tenant" not in error_record("boom")


#: One record of every output kind, plus the values JSON treats specially.
EVERY_KIND = [
    {"kind": "serve.ready", "version": 1, "default_scheduler": "batch+",
     "schedulers": ["batch", "batch+"], "tenants": []},
    {"kind": "serve.open", "tenant": "t1", "scheduler": "cdb",
     "clairvoyant": True, "params": {"alpha": 2.0}},
    {"kind": "decision", "tenant": "t1", "rule": "class-boundary",
     "category": 3, "length": 2.05, "job": 0, "t": 1.78, "scheduler": "cdb"},
    {"kind": "start", "tenant": "t1", "job": 2**63 - 1, "t": 0.1 + 0.2},
    {"kind": "complete", "tenant": "t1", "job": 0, "t": 1e-300},
    {"kind": "serve.closed", "tenant": "t1", "span": 12.5, "jobs": 3,
     "events": 9},
    {"kind": "serve.checkpoint", "tenant": "t1", "path": "c/t1.ckpt.jsonl",
     "ops": 4, "emitted": 11},
    {"kind": "serve.trace", "tenant": "t1", "path": "tr/t1.trace.jsonl"},
    {"kind": "serve.stats", "lines_in": 3, "records_out": 7, "errors": 0,
     "draining": False, "tenants": {"t1": {"queued": 0, "clock": 2.0}},
     "telemetry": {"kind": "telemetry", "enabled": False, "tenants": {}}},
    error_record("tâche refusée ✗ 日本   \"quoted\" \\ \n", tenant="t1",
                 op="job"),
    {"kind": "serve.bye", "tenants": 1},
    {"kind": "serve.stats", "nan": float("nan"), "inf": float("inf"),
     "ninf": float("-inf"), "ratio": None, "neg": -0.0},
]


@pytest.mark.parametrize("record", EVERY_KIND, ids=lambda r: str(r["kind"]))
def test_encode_record_matches_json_dumps(record):
    expected = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
    assert encode_record(record) == expected
