"""Wrapper spans around the layer entry points of ``repro``.

Nothing under ``src/`` knows about this file.  :class:`SpanRecorder`
rebinds each layer's public entry points, wherever a ``repro`` module
holds a reference to them, to a wrapper that records one span
``[layer, start, end, parent]`` per call on the calling thread's own
list.  The clock is ``time.thread_time()`` — CPU time of this thread —
so a rank parked in ``match_recv`` is not charged for the ranks that run
meanwhile.  A layer's self time is its spans' time minus the time of the
spans they directly enclose.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import thread_time

#: layer -> entry points as (module, dotted name inside the module).
LAYERS: dict[str, list[tuple[str, str]]] = {
    "mpi.transport.post_send": [("repro.mpi.transport", "Transport.post_send")],
    "mpi.transport.match_recv": [("repro.mpi.transport", "Transport.match_recv")],
    "mpi.collectives": [
        ("repro.mpi.collectives", name)
        for name in (
            "barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
            "allgather", "alltoall", "reduce_scatter",
            "ibcast", "iallgather", "ireduce_scatter",
        )
    ],
    "mpi.request.wait": [
        ("repro.mpi.request", "SendRequest.wait"),
        ("repro.mpi.request", "RecvRequest.wait"),
        ("repro.mpi.request", "CollRequest.wait"),
        ("repro.mpi.request", "wait_all"),
        ("repro.mpi.request", "wait_any"),
    ],
    "core.replicate": [("repro.core.replicate", "replicate_block")],
    "core.cannon": [("repro.core.cannon", "cannon_multiply")],
    "core.reduce_c": [("repro.core.reduce_c", "reduce_partial_c")],
    "layout.redistribute": [("repro.layout.redistribute", "redistribute")],
    "obs.tracer": [("repro.obs.tracer", "Tracer.begin"), ("repro.obs.tracer", "Tracer.end")],
    "obs.report": [
        ("repro.obs.metrics", "snapshot_run"),
        ("repro.obs.audit", "audit_run"),
        ("repro.obs.critpath", "critpath_report"),
        ("repro.obs.drift", "drift_report"),
        ("repro.obs.memtrace", "memprof_run"),
        ("repro.obs.ledger", "ledger_record"),
    ],
    "obs.export": [
        ("repro.obs.export", "write_chrome_trace"),
        ("repro.obs.export", "write_jsonl"),
    ],
}
LAYER_NAMES = list(LAYERS)


class SpanRecorder:
    """Install the wrappers, record spans in memory, take them off again."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[tuple[int, list]] = []  # (thread ident, its spans)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------- recording -- #
    def _state(self):
        local = self._local
        try:
            return local.spans, local.open
        except AttributeError:
            local.spans, local.open = [], []
            self._threads.append((threading.get_ident(), local.spans))  # atomic append
            return local.spans, local.open

    def _wrap(self, layer: int, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, open_ = state()
            span = [layer, thread_time(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = thread_time()

        return wrapper

    # ------------------------------------------------------- rebinding -- #
    def install(self) -> None:
        for layer, (_name, targets) in enumerate(LAYERS.items()):
            for modname, dotted in targets:
                owner = sys.modules[modname]
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                if path:  # a method: callers reach it through the class
                    self._rebind(owner, attr, wrapper)
                    continue
                # A function: rebind every repro module that imported it by name.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "repro":
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, name, wrapper)

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # ------------------------------------------------------- reporting -- #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: self CPU seconds and number of calls."""
        self_s = [0.0] * len(LAYER_NAMES)
        calls = [0] * len(LAYER_NAMES)
        for _ident, spans in self._threads:
            for layer, t0, t1, parent in spans:
                dur = t1 - t0
                self_s[layer] += dur
                calls[layer] += 1
                if parent >= 0:
                    self_s[spans[parent][0]] -= dur
        return {
            name: {"self_cpu_s": self_s[i], "calls": calls[i]}
            for i, name in enumerate(LAYER_NAMES)
        }

    def dump(self) -> dict:
        """All spans, for ``--trace-out``: per thread, rows of
        ``[layer index, start, end, parent row or -1]`` on that thread's
        CPU clock."""
        return {
            "clock": "time.thread_time (per-thread CPU seconds)",
            "layers": LAYER_NAMES,
            "threads": [{"thread": ident, "spans": spans} for ident, spans in self._threads],
        }
