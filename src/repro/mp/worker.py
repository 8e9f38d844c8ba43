"""The worker-process main loop (``execution="multiprocess"``).

Each worker process is forked from the supervisor after setup, so it
inherits a full copy of the bound :class:`~repro.engine.context.ExchangeContext`
and backend — partitioned features, adjacency rows, halo plans, caches —
by address-space snapshot. From then on the only things that flow in are:

* pipe commands (one strict request→reply round per engine step, with
  pulled parameters / backward weights / kernel-state refreshes as
  payloads), and
* shared-memory blocks (halo inputs written by the supervisor's
  exchange scatter; layer outputs / gradient rows / dH partials written
  back by the worker for the supervisor's exchanges to serve).

The worker runs only the pure kernels (the exact same
:class:`~repro.engine.backends.ModelBackend` methods and
:func:`~repro.engine.executor.loss_kernel` the inline executor calls);
every policy, fault, metering and tuner decision stays
on the supervisor, which is what keeps multiprocess runs bit-identical
to sync. Kernel wall time is measured here — kernel only, shared-memory
copies excluded — and shipped back for the supervisor to charge to the
simulated cluster clock.

A worker that hits an exception replies ``("err", traceback, 0.0)`` and
keeps serving rounds (the supervisor raises); EOF on the pipe or a
``stop`` command ends the loop. The first thing the loop does is
:func:`~repro.mp.store.disarm_inherited_stores`, so a dying worker can
never unlink shared segments the supervisor still owns.
"""

from __future__ import annotations

import traceback
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine.executor import loss_kernel
from repro.mp.store import SharedStore, disarm_inherited_stores
from repro.obs.tracing import monotonic_now

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from repro.core.worker import WorkerState
    from repro.engine.backends import ModelBackend
    from repro.engine.context import ExchangeContext

__all__ = ["worker_main"]


def _resolve_halo(
    ref: tuple[Any, ...], state: WorkerState, store: SharedStore
) -> np.ndarray:
    """Materialize a halo reference from a round's dispatch message."""
    kind = ref[0]
    if kind == "shm":
        return store.attach(ref[1])
    if kind == "own":
        # The cached first-hop features, inherited at fork (and current:
        # crash recovery respawns the process after rebuilding them). The
        # backend recognizes this array and serves layer 1 from the
        # worker's first-hop cache, built once in this process.
        return state.halo_features
    # "data": small/irregular rows shipped inline over the pipe.
    return ref[1]


def _dispatch(
    msg: tuple[Any, ...],
    state: WorkerState,
    backend: ModelBackend,
    ctx: ExchangeContext,
    store: SharedStore,
) -> tuple[Any, float]:
    num_layers = ctx.params.num_layers
    op = msg[0]

    if op == "fwd":
        _, layer, is_last, pulled, halo_ref, h_block = msg
        halo = _resolve_halo(halo_ref, state, store)
        start = monotonic_now()
        backend.forward_layer(state, halo, pulled, layer, is_last=is_last)
        wall = monotonic_now() - start
        if h_block is not None:
            np.copyto(store.attach(h_block),
                      backend.layer_output(state, layer))
        return None, wall

    if op == "loss":
        _, g_block = msg
        logits = backend.final_logits(state)
        start = monotonic_now()
        loss_term, grad, counters = loss_kernel(
            state, logits, ctx.global_train_count
        )
        wall = monotonic_now() - start
        state.grad_rows[num_layers] = grad
        if g_block is not None:
            np.copyto(store.attach(g_block), state.grad_rows[num_layers])
        return (loss_term, counters), wall

    if op == "bpl":
        _, layer, weights, export_block = msg
        start = monotonic_now()
        shares = backend.backward_local(state, layer, weights)
        wall = monotonic_now() - start
        if export_block is not None:
            np.copyto(store.attach(export_block),
                      backend.bp_halo_rows(state, layer))
        return shares, wall

    if op == "bpr":
        _, layer, weights, halo_ref, g_block = msg
        halo = _resolve_halo(halo_ref, state, store)
        start = monotonic_now()
        backend.backward_reduce(state, layer, halo, weights)
        wall = monotonic_now() - start
        if g_block is not None:
            np.copyto(store.attach(g_block), state.grad_rows[layer - 1])
        return None, wall

    if op == "begin":
        backend.begin_iteration()
        return None, 0.0

    if op == "kstate":
        backend.apply_kernel_refresh(state.worker_id, msg[1])
        return None, 0.0

    raise ValueError(f"unknown worker op {op!r}")


def worker_main(
    worker_id: int,
    conn: Connection,
    token: str,
    ctx: ExchangeContext,
    backend: ModelBackend,
) -> None:
    """Serve kernel rounds for one worker until ``stop`` or EOF."""
    disarm_inherited_stores()
    store = SharedStore(token, create=False)
    state = ctx.workers[worker_id]
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, KeyboardInterrupt):
                break
            if msg[0] == "stop":
                break
            try:
                payload, wall = _dispatch(msg, state, backend, ctx, store)
            except Exception:
                conn.send(("err", traceback.format_exc(), 0.0))
                continue
            conn.send(("ok", payload, wall))
    finally:
        store.close()
        conn.close()
