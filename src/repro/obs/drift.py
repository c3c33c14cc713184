"""``drift_report``: the communication audit under the name the frozen
host benchmark calls.

Measured per-phase traffic is checked against eq. (4) in one place,
:func:`repro.obs.audit.audit_run`.  This alias stays only because
``benchmarks/hostbench/`` (``workloads.py``, ``probes.py``, ``spans.py``)
calls it and is edited by one PR alone; that PR (ROADMAP "A smaller
core" (b)) deletes this module.
"""

from __future__ import annotations

from typing import Any

from .audit import AuditReport, audit_run


def drift_report(result: Any, plan: Any, **kw: Any) -> AuditReport:
    """:func:`~repro.obs.audit.audit_run`, verdict and rows unchanged."""
    return audit_run(result, plan, **kw)
