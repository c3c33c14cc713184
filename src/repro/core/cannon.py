"""Cannon's algorithm on an ``s x s`` process group (Algorithm 1, step 6).

The group computes one rank-``(k/pk)`` update: process ``(u, v)`` owns the
unskewed blocks ``A_{u, v}`` and ``B_{u, v}`` (in within-group indexing)
and must produce ``C_{u, v} = Σ_t A_{u,t} B_{t,v}``.

* **Initial skew** — each process sends its A block ``u`` positions left
  and its B block ``v`` positions up (one message each, the "initial
  skewing" of Section III-B), after which ``(u, v)`` holds
  ``A_{u,(u+v) mod s}`` and ``B_{(u+v) mod s, v}``.
* **s-1 shift steps** — circular shifts of A left and B up by one, each
  overlapped with the local GEMM through the dual-buffer idiom: the
  sends/receives for the next blocks are posted (``isend``/``irecv``)
  before computing with the current blocks, exactly the optimization the
  paper's implementation section describes.  How much the simulated
  clock actually hides depends on the machine's overlap capability
  (``MachineModel.overlap``): with ``"none"`` or ``"full"`` each posted
  transfer progresses as its own stream and the step completes at
  ``max(gemm, flight)``; with ``"partial"`` the rank's single NIC
  stream serializes the inter-node A and B sends, so the step completes
  at ``max(gemm, flight_a + flight_b)``.  (An earlier revision claimed
  unconditional ``max(gemm, comm)``; ``tests/core/test_cannon.py``
  pins the per-capability arithmetic.)  The shift waits drain in
  arrival order (:func:`repro.mpi.wait_all`), so an early block is
  never billed a late block's wait.
* **Frozen blocks** — no rank ever writes a Cannon block, so every
  block a rank receives is frozen (:func:`repro.mpi.datatypes.freeze`):
  the transport made it for this rank, and from then on it is handed
  from rank to rank as it is, never copied again.  The caller's own
  ``a_blk``/``b_blk`` are never frozen here; a caller that allocated
  them itself freezes them first, and they travel without a copy too.
* **Multi-shift aggregation** — when Cannon blocks have a small
  k-extent, ``shifts_per_gemm > 1`` gathers several A/B block pairs and
  multiplies them as one concatenated local GEMM, the paper's "multiple
  shifts for one local matrix multiplication" optimization (same flops
  and traffic, fewer/bigger local GEMMs).

Block shapes may be ragged (balanced splitting) or empty (more processes
than matrix rows/columns); everything degrades gracefully because the
payload arrays carry their own shapes.
"""

from __future__ import annotations

import numpy as np

from ..mpi.datatypes import INTERNAL_TAG_BASE, freeze
from ..mpi.request import wait_all
from ..mpi.topology import Cart2D

_TAG_SKEW_A = INTERNAL_TAG_BASE + 101
_TAG_SKEW_B = INTERNAL_TAG_BASE + 102
_TAG_SHIFT_A = INTERNAL_TAG_BASE + 103
_TAG_SHIFT_B = INTERNAL_TAG_BASE + 104


def _skew(cart: Cart2D, a_blk: np.ndarray, b_blk: np.ndarray):
    """Initial alignment: A left by ``u``, B up by ``v``."""
    u, v = cart.row, cart.col
    if u > 0:
        a_blk = freeze(cart.comm.sendrecv(
            a_blk, cart.left(u), cart.right(u), _TAG_SKEW_A, _TAG_SKEW_A
        ))
    if v > 0:
        b_blk = freeze(cart.comm.sendrecv(
            b_blk, cart.up(v), cart.down(v), _TAG_SKEW_B, _TAG_SKEW_B
        ))
    return a_blk, b_blk


def cannon_multiply(
    cart: Cart2D,
    a_blk: np.ndarray,
    b_blk: np.ndarray,
    shifts_per_gemm: int = 1,
) -> np.ndarray:
    """Run Cannon's algorithm; return this process's (partial) C block.

    ``cart`` must be square (``s x s``).  ``a_blk``/``b_blk`` are the
    unskewed within-group blocks; the result has shape
    ``(a_blk.rows, b_blk.cols)`` and dtype of the promoted operands.
    """
    if cart.nrows != cart.ncols:
        raise ValueError(f"Cannon needs a square grid, got {cart.nrows}x{cart.ncols}")
    s = cart.nrows
    comm = cart.comm
    out_dtype = np.promote_types(a_blk.dtype, b_blk.dtype)
    c_loc = np.zeros((a_blk.shape[0], b_blk.shape[1]), dtype=out_dtype)
    # The partial-C accumulator lives through every shift — eq. (11)'s
    # ``pk·mn/used`` term.  Charged here, released on return; the caller
    # re-charges the returned block under the same purpose.
    comm.mem_alloc("tile.c", c_loc.nbytes)
    try:
        if s == 1:
            if a_blk.shape[1]:
                comm.gemm_tick(a_blk.shape[0], b_blk.shape[1], a_blk.shape[1])
                c_loc[:] = a_blk @ b_blk
            return c_loc

        a_cur, b_cur = _skew(cart, a_blk, b_blk)
        if a_cur.shape[0] != a_blk.shape[0] or b_cur.shape[1] != b_blk.shape[1]:
            raise AssertionError("skew changed the local C-facing extents")

        pending_a: list[np.ndarray] = []
        pending_b: list[np.ndarray] = []

        def flush() -> None:
            if not pending_a:
                return
            a_cat = pending_a[0] if len(pending_a) == 1 else np.concatenate(pending_a, axis=1)
            b_cat = pending_b[0] if len(pending_b) == 1 else np.concatenate(pending_b, axis=0)
            if a_cat.shape[1]:
                # A zero inner width means no flops AND no operand staging:
                # ticking here would charge phantom GEMM-call time (GPU mode
                # stages m*n result bytes even at k == 0).
                comm.gemm_tick(a_cat.shape[0], b_cat.shape[1], a_cat.shape[1])
                np.add(c_loc, a_cat @ b_cat, out=c_loc)
            pending_a.clear()
            pending_b.clear()

        for t in range(s):
            last = t == s - 1
            if not last:
                req_as = comm.isend(a_cur, cart.left(1), _TAG_SHIFT_A)
                req_ar = comm.irecv(cart.right(1), _TAG_SHIFT_A)
                req_bs = comm.isend(b_cur, cart.up(1), _TAG_SHIFT_B)
                req_br = comm.irecv(cart.down(1), _TAG_SHIFT_B)
                # The second buffer of the dual-buffer idiom: the
                # incoming next blocks coexist with the current blocks
                # until the waits complete.  Charged after the posts so
                # the transient send-copy spike (transport.inflight) is
                # absorbed into the same dual-buffer budget rather than
                # stacking on top of it.
                dblbuf = a_cur.nbytes + b_cur.nbytes
                comm.mem_alloc("cannon.dblbuf", dblbuf)
            pending_a.append(a_cur)
            pending_b.append(b_cur)
            if last or len(pending_a) >= shifts_per_gemm:
                flush()
            if not last:
                # Arrival-ordered drain: whichever transfer lands first
                # is charged first, so the A wait never absorbs B's
                # flight (or vice versa).
                vals = wait_all([req_ar, req_br, req_as, req_bs])
                a_cur = freeze(vals[0])
                b_cur = freeze(vals[1])
                comm.mem_free("cannon.dblbuf", dblbuf)
        flush()
        return c_loc
    finally:
        comm.mem_free("tile.c", c_loc.nbytes)
