"""The execution seam: where worker kernels actually run.

The staged engine describes *what* happens each iteration — pulls,
halo exchanges, per-worker kernels, the loss scan — while an executor
decides *where* the per-worker kernels run:

* :class:`SyncExecutor` (``execution="sync"``) runs them inline in the
  supervisor process under each worker's compute clock, exactly as the
  engine always has — the historical single-process simulation;
* :class:`~repro.mp.supervisor.ProcessExecutor`
  (``execution="multiprocess"``) dispatches them to real OS worker
  processes over pipes and shared-memory stores (see
  ``docs/execution.md``).

Everything *between* the kernels — parameter pulls, the exchange
policies and their compensation state, fault injection, traffic
metering, the Bit-Tuner — always stays on the supervisor, which is why
the two executors produce bit-identical loss curves and traffic totals.
Both run the same kernels: the backend's per-layer methods and
:func:`loss_kernel`.

The seam's row accessors (:meth:`SyncExecutor.layer_rows`,
``grad_rows``, ``bp_halo_rows``) are how exchanges source the rows a
worker serves: inline execution reads the backend's caches directly;
the process executor reads the shared-memory blocks its workers
populate.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, ContextManager

import numpy as np

from repro.nn.losses import softmax_cross_entropy

if TYPE_CHECKING:
    from repro.core.worker import WorkerState
    from repro.engine.backends import ModelBackend
    from repro.engine.context import ExchangeContext

__all__ = ["SyncExecutor", "loss_kernel"]


def loss_kernel(
    state: WorkerState, logits: np.ndarray, global_train_count: int
) -> tuple[float, np.ndarray, dict[str, list[int]]]:
    """Softmax cross-entropy on one worker's final logits.

    Returns the worker's loss term, the ``G^L`` seed rows and its
    ``[correct, count]`` per split. Loss and gradient are scaled by the
    worker's share of the *global* train count: ``result.grad`` is a
    mean over the local train vertices, and rescaling it to a global
    mean makes the sum of the workers' pushes exact.
    """
    result = softmax_cross_entropy(logits, state.labels, state.train_mask)
    local = int(state.train_mask.sum())
    scale = local / global_train_count if local else 0.0
    counters = {"train": [result.correct, result.count]}
    predictions = logits.argmax(axis=1)
    for split, mask in (("val", state.val_mask), ("test", state.test_mask)):
        counters[split] = [
            int((predictions[mask] == state.labels[mask]).sum()),
            int(mask.sum()),
        ]
    grad = (result.grad * scale).astype(np.float32)
    return result.loss * scale, grad, counters


class SyncExecutor:
    """Inline execution: every worker kernel runs in this process."""

    name = "sync"

    def __init__(self) -> None:
        self.ctx: ExchangeContext | None = None
        self.backend: ModelBackend | None = None

    def bind(self, ctx: ExchangeContext, backend: ModelBackend) -> None:
        self.ctx = ctx
        self.backend = backend

    def _bound(self) -> tuple[ExchangeContext, ModelBackend]:
        assert self.ctx is not None and self.backend is not None
        return self.ctx, self.backend

    # ------------------------------------------------------------------
    # Iteration hooks
    # ------------------------------------------------------------------
    def on_epoch_start(self, t: int) -> None:
        self._bound()[1].on_epoch_start(t)

    def begin_iteration(self) -> None:
        self._bound()[1].begin_iteration()

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward_kernels(
        self,
        t: int,
        layer: int,
        pulled: list[dict[str, np.ndarray]],
        halos: list[np.ndarray],
        is_last: bool,
    ) -> None:
        del t
        ctx, backend = self._bound()
        for state in ctx.active_workers():
            i = state.worker_id
            with ctx.runtime.worker_compute(i):
                backend.forward_layer(
                    state, halos[i], pulled[i], layer, is_last=is_last
                )

    def loss_scan(self, t: int) -> tuple[float, dict[str, list[int]]]:
        """Loss + accuracy counters from the final logits; seeds the
        gradient rows (scaled by the global train count)."""
        del t
        ctx, backend = self._bound()
        counters = {"train": [0, 0], "val": [0, 0], "test": [0, 0]}
        total_loss = 0.0
        for state in ctx.active_workers():
            logits = backend.final_logits(state)
            with ctx.runtime.worker_compute(state.worker_id):
                loss_term, grad, worker_counters = loss_kernel(
                    state, logits, ctx.global_train_count
                )
            state.grad_rows[ctx.params.num_layers] = grad
            total_loss += loss_term
            for split in counters:
                counters[split][0] += worker_counters[split][0]
                counters[split][1] += worker_counters[split][1]
        return total_loss, counters

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def _bp_span(self, layer: int, stage: str) -> ContextManager[object]:
        ctx, _ = self._bound()
        if getattr(self.backend, "_bp_span_stages", False):
            return ctx.telemetry.span(
                "kernel", layer=layer, direction="bp", stage=stage
            )
        return contextlib.nullcontext()

    def backward_local(
        self,
        t: int,
        layer: int,
        weights: dict[str, np.ndarray],
        grads: dict[int, dict[str, np.ndarray]],
    ) -> None:
        del t
        ctx, backend = self._bound()
        with self._bp_span(layer, "weight_grad"):
            for state in ctx.active_workers():
                i = state.worker_id
                with ctx.runtime.worker_compute(i):
                    grads[i].update(
                        backend.backward_local(state, layer, weights)
                    )

    def backward_reduce(
        self,
        t: int,
        layer: int,
        weights: dict[str, np.ndarray],
        halos: list[np.ndarray],
    ) -> None:
        del t
        ctx, backend = self._bound()
        with self._bp_span(layer, "input_grad"):
            for state in ctx.active_workers():
                with ctx.runtime.worker_compute(state.worker_id):
                    backend.backward_reduce(
                        state, layer, halos[state.worker_id], weights
                    )

    # ------------------------------------------------------------------
    # Exchange row sources
    # ------------------------------------------------------------------
    def layer_rows(self, state: WorkerState, layer: int) -> np.ndarray:
        """Rows a forward exchange serves: the layer's local outputs."""
        return self._bound()[1].layer_output(state, layer)

    def grad_rows(self, state: WorkerState, layer: int) -> np.ndarray:
        """Rows a backward fetch serves: the layer's gradient rows."""
        return state.grad_rows[layer]

    def bp_halo_rows(self, state: WorkerState, layer: int) -> np.ndarray:
        """Halo rows a reverse exchange pushes (GAT dH partials)."""
        return self._bound()[1].bp_halo_rows(state, layer)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_worker_crash(self, worker_id: int) -> None:
        """Inline workers have no process to respawn."""
        del worker_id

    def close(self) -> None:
        """Inline execution holds no external resources."""
