"""Append-only run ledger (`repro.obs.ledger`)."""

from __future__ import annotations

import json

import pytest

from repro.core import ca3dmm_matmul
from repro.core.plan import Ca3dmmPlan
from repro.layout import DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import run_spmd
from repro.obs.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_ENV,
    Ledger,
    LedgerError,
    canonical_json,
    ledger_path_from_env,
    ledger_record,
    validate_ledger_record,
)


def _executed(m=32, n=32, k=64, P=8):
    plan = Ca3dmmPlan(m, n, k, P)

    def f(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        ca3dmm_matmul(a, b)

    return plan, run_spmd(P, f, machine=laptop(), record_events=False)


class TestRecord:
    def test_record_validates_and_carries_measurements(self):
        plan, res = _executed()
        rec = ledger_record(res, plan, "test.unit")
        validate_ledger_record(rec)  # must not raise
        assert rec["kind"] == "test.unit"
        assert rec["problem"] == {"m": 32, "n": 32, "k": 64, "nprocs": 8, "nruns": 1}
        assert rec["grid"]["pm"] == plan.pm and rec["grid"]["active"] == plan.active
        assert rec["traffic"]["q_words"] > 0
        assert rec["schema_version"] == 3
        # v2: resident watermark from memtrace spans, with breakdown
        assert rec["memory"]["resident_peak_words"] > 0
        assert rec["memory"]["by_purpose_words"]["tile.a"] > 0
        assert rec["memory"]["by_purpose_words"]["transport.inflight"] > 0
        assert rec["optimality"]["q_over_eq9"] > 0
        assert rec["faults"]["retries"] == 0

    def test_audit_ok_and_extra_ride_along(self):
        plan, res = _executed()
        rec = ledger_record(
            res, plan, "test.unit", audit_ok=True, extra={"note": "x"}
        )
        assert rec["audit_ok"] is True
        assert rec["extra"] == {"note": "x"}

    def test_deterministic_modulo_run_id(self):
        plan_a, res_a = _executed()
        plan_b, res_b = _executed()
        a = ledger_record(res_a, plan_a, "test.det", run_id="0" * 32)
        b = ledger_record(res_b, plan_b, "test.det", run_id="0" * 32)
        assert canonical_json(a) == canonical_json(b)

    def test_invalid_record_rejected(self):
        plan, res = _executed()
        rec = ledger_record(res, plan, "test.unit")
        rec["run_id"] = "not-hex"
        with pytest.raises(LedgerError):
            validate_ledger_record(rec)

    def test_nruns_must_be_positive(self):
        plan, res = _executed()
        with pytest.raises(ValueError):
            ledger_record(res, plan, "test.unit", nruns=0)


class TestLedgerFile:
    def test_append_read_roundtrip(self, tmp_path):
        plan, res = _executed()
        led = Ledger(tmp_path / "ledger.jsonl")
        rec = led.append(ledger_record(res, plan, "test.rt"))
        got = list(led.records())
        assert got == [rec]
        assert len(led) == 1

    def test_missing_file_is_empty(self, tmp_path):
        led = Ledger(tmp_path / "absent.jsonl")
        assert list(led.records()) == []
        assert len(led) == 0

    def test_lines_are_canonical_json(self, tmp_path):
        plan, res = _executed()
        led = Ledger(tmp_path / "ledger.jsonl")
        rec = led.append(ledger_record(res, plan, "test.canon"))
        raw = (tmp_path / "ledger.jsonl").read_text().splitlines()
        assert raw == [canonical_json(rec)]

    def test_corrupt_line_raises_with_location(self, tmp_path):
        plan, res = _executed()
        path = tmp_path / "ledger.jsonl"
        led = Ledger(path)
        led.append(ledger_record(res, plan, "test.bad"))
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(LedgerError, match=r"ledger\.jsonl:2"):
            list(led.records())

    def test_schema_violating_line_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({"schema_version": 1}) + "\n")
        with pytest.raises(LedgerError, match=":1"):
            list(Ledger(path).records())

    @pytest.mark.parametrize("old", [1, 2])
    def test_older_schema_version_rejected_with_location(self, tmp_path, old):
        plan, res = _executed()
        path = tmp_path / "ledger.jsonl"
        led = Ledger(path)
        newest = led.append(ledger_record(res, plan, "test.v3"))
        assert newest["schema_version"] == 3
        with open(path, "a") as fh:
            fh.write(canonical_json({**newest, "schema_version": old}) + "\n")
        with pytest.raises(LedgerError, match=r"ledger\.jsonl:2"):
            list(led.records())

    def test_append_refuses_invalid(self, tmp_path):
        led = Ledger(tmp_path / "ledger.jsonl")
        with pytest.raises(LedgerError):
            led.append({"schema_version": 1})
        assert not (tmp_path / "ledger.jsonl").exists()

    def test_query_filters(self, tmp_path):
        plan, res = _executed()
        plan2, res2 = _executed(m=48, n=48, k=48, P=8)
        led = Ledger(tmp_path / "ledger.jsonl")
        led.append(ledger_record(res, plan, "kind.a"))
        led.append(ledger_record(res2, plan2, "kind.b"))
        led.append(ledger_record(res, plan, "kind.a"))
        assert len(led.query(kind="kind.a")) == 2
        assert len(led.query(kind="kind.b")) == 1
        assert len(led.query(m=48, n=48, k=48)) == 1
        assert len(led.query(nprocs=8)) == 3
        assert len(led.query(last=2)) == 2
        assert led.query(kind="kind.a", last=1)[0]["kind"] == "kind.a"

    def test_newest_zero_is_none_and_negative_is_refused(self, tmp_path):
        plan, res = _executed()
        led = Ledger(tmp_path / "ledger.jsonl")
        for kind in ("kind.a", "kind.b", "kind.c"):
            led.append(ledger_record(res, plan, kind))
        assert led.query(last=0) == []
        assert [r["kind"] for r in led.query(last=5)] == ["kind.a", "kind.b", "kind.c"]
        assert [r["kind"] for r in led.query(last=1)] == ["kind.c"]
        with pytest.raises(ValueError, match="last"):
            led.query(last=-1)


class TestEnvOptIn:
    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert ledger_path_from_env() is None

    def test_literal_one_selects_default(self, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, "1")
        assert str(ledger_path_from_env()) == DEFAULT_LEDGER_PATH

    def test_value_is_a_path(self, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, "/tmp/my.jsonl")
        assert str(ledger_path_from_env()) == "/tmp/my.jsonl"
