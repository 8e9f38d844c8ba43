"""Span tracing from outside the program.

:func:`install` patches wrappers around the public methods at each
layer boundary of the training engine — stages, executors, halo
transport, the two codec policies, the Bit-Tuner, the parameter servers
and the set-up steps — and restores the originals on exit. Each wrapper
records a span (name, start, end, parent span, epoch) in a
:class:`Tracer`, in memory; :func:`summarize` turns the spans of the
timed epochs into per-epoch layer metrics and :func:`write_spans` dumps
them at the end of the run.

The wrappers only read: they never change arguments or results, so a
traced run's losses and bytes equal an untraced run's (the harness
checks this on every traced run).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# Span fields, stored as lists for cheap appends on the hot path.
NAME, START, END, PARENT, EPOCH, ATTRS = range(6)

# Span-name prefix -> the system layer it belongs to.
LAYERS = {
    "epoch": "engine (unattributed)",
    "stage": "engine.stages",
    "kernel": "engine.executor",
    "transport": "engine.transport",
    "codec": "core policies + compression",
    "tuner": "core bit tuner",
    "ps": "cluster parameter servers",
}


class Tracer:
    """In-memory span recorder for one workload run (single thread)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.epoch: int | None = None
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.epoch, None]
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
Factory = Callable[[Callable[..., Any], Tracer], Callable[..., Any]]


def _timed(name: str) -> Factory:
    def factory(fn: Callable[..., Any], tracer: Tracer) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
        return wrapper
    return factory


def _kernel(name: str) -> Factory:
    """Executor kernel call; records the largest per-worker compute the
    call charged to the simulated clock (``ClusterRuntime`` deltas)."""
    def factory(fn: Callable[..., Any], tracer: Tracer) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            runtime = self.ctx.runtime
            before = runtime.compute_snapshot()
            index = tracer.open(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(index)
                charged = runtime.compute_snapshot() - before
                tracer.spans[index][ATTRS] = {"charged": float(charged.max())}
        return wrapper
    return factory


def _exchange(fn: Callable[..., Any], tracer: Tracer) -> Callable[..., Any]:
    """``HaloTransport.exchange``, named by its traffic category; forward
    exchanges also record the mean ReqEC predicted-win proportion."""
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        category = kwargs["category"] if "category" in kwargs else args[4]
        name = {
            "fp_embeddings": "transport.fp", "bp_gradients": "transport.bp",
        }.get(category, "transport.other")
        index = tracer.open(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(index)
            shares = self.last_proportions()
            if name == "transport.fp" and shares:
                tracer.spans[index][ATTRS] = {
                    "share": sum(shares.values()) / len(shares)
                }
    return wrapper


def _encode(name: str) -> Factory:
    """``respond``: records wire bytes and the float32 bytes carried."""
    def factory(fn: Callable[..., Any], tracer: Tracer) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: Any, key: Any, rows: Any, *args: Any,
                    **kwargs: Any) -> Any:
            index = tracer.open(name)
            try:
                message = fn(self, key, rows, *args, **kwargs)
            finally:
                tracer.close(index)
            tracer.spans[index][ATTRS] = {
                "wire": float(message.nbytes),
                "raw": float(rows.shape[0] * rows.shape[1] * 4),
            }
            return message
        return wrapper
    return factory


def _tuner_update(fn: Callable[..., Any], tracer: Tracer) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open("tuner.update")
        try:
            bits = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.spans[index][ATTRS] = {"bits": float(bits)}
        return bits
    return wrapper


def targets() -> list[tuple[Any, str, Factory]]:
    """(owner, attribute, wrapper factory) for every traced boundary."""
    import repro.core.trainer as trainer_module
    from repro.cluster.param_server import ParameterServerGroup
    from repro.core.bit_tuner import BitTuner
    from repro.core.reqec_fp import ReqECPolicy
    from repro.core.resec_bp import ResECPolicy
    from repro.engine import stages
    from repro.engine.executor import SyncExecutor
    from repro.engine.transport import HaloTransport
    from repro.mp.supervisor import ProcessExecutor
    from repro.partition import make_partitioner

    out: list[tuple[Any, str, Factory]] = [
        (stages.HaloPlanStage, "run", _timed("stage.halo_plan")),
        (stages.ForwardStage, "run", _timed("stage.forward")),
        (stages.BackwardStage, "run", _timed("stage.backward")),
        (stages.OptimizeStage, "run", _timed("stage.optimize")),
        (stages.EvalStage, "run", _timed("stage.eval")),
        (HaloTransport, "exchange", _exchange),
        (HaloTransport, "reverse_exchange", _timed("transport.reverse")),
        (ReqECPolicy, "respond", _encode("codec.fp_encode")),
        (ReqECPolicy, "receive", _timed("codec.fp_decode")),
        (ResECPolicy, "respond", _encode("codec.bp_encode")),
        (ResECPolicy, "receive", _timed("codec.bp_decode")),
        (BitTuner, "update", _tuner_update),
        (ParameterServerGroup, "pull", _timed("ps.pull")),
        (ParameterServerGroup, "push", _timed("ps.push")),
        (ParameterServerGroup, "apply_updates", _timed("ps.apply")),
        (type(make_partitioner("hash")), "partition",
         _timed("setup.partition")),
        (trainer_module, "normalized_adjacency", _timed("setup.normalize")),
        (trainer_module, "build_worker_states", _timed("setup.workers")),
        # ProcessExecutor has no public spawn step; _spawn forks one
        # worker and runs only on the first round (and on respawn).
        (ProcessExecutor, "_spawn", _timed("setup.spawn")),
    ]
    for executor in (SyncExecutor, ProcessExecutor):
        out += [
            (executor, "forward_kernels", _kernel("kernel.forward")),
            (executor, "backward_local", _kernel("kernel.backward_local")),
            (executor, "backward_reduce", _kernel("kernel.backward_reduce")),
            (executor, "loss_scan", _kernel("kernel.loss")),
        ]
    return out


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, factory in targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original, tracer))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [
        span[END] - span[START] - covered
        for span, covered in zip(spans, child)
    ]


@dataclass
class _Totals:
    """Span sums by name over the timed epochs (set-up spans whole)."""

    total: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    own: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    count: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    attrs: dict[str, dict[str, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float))
    )
    attr_count: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def _aggregate(tracer: Tracer, epochs: list[int]) -> _Totals:
    window = set(epochs)
    out = _Totals()
    for span, own in zip(tracer.spans, _self_times(tracer.spans)):
        name = span[NAME]
        if not (name.startswith("setup.") or span[EPOCH] in window):
            continue
        out.total[name] += span[END] - span[START]
        out.own[name] += own
        out.count[name] += 1
        if span[ATTRS]:
            out.attr_count[name] += 1
            for key, value in span[ATTRS].items():
                out.attrs[name][key] += value
    return out


def summarize(tracer: Tracer, epochs: list[int]) -> dict[str, float]:
    """Per-epoch layer metrics over the timed ``epochs``.

    Span names map onto the benchmark's per-layer metric names; set-up
    spans are taken whole (they run outside any epoch).
    """
    sums = _aggregate(tracer, epochs)
    total, self_time, count = sums.total, sums.own, sums.count
    attrs, attr_count = sums.attrs, sums.attr_count
    n = len(epochs)

    def per_epoch(*names: str) -> float:
        return sum(total[name] for name in names) / n

    def prefixed(prefix: str, table: dict[str, float]) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def ratio(name: str, num: str, den: str) -> float:
        den_value = attrs[name][den]
        return attrs[name][num] / den_value if den_value else 0.0

    def mean_attr(name: str, key: str) -> float:
        return attrs[name][key] / attr_count[name] if attr_count[name] else 0.0

    kernel_total = prefixed("kernel.", total)
    charged = sum(
        attrs[name]["charged"] for name in attrs if name.startswith("kernel.")
    )
    return {
        "engine.halo_plan_s": per_epoch("stage.halo_plan"),
        "engine.forward_s": per_epoch("stage.forward"),
        "engine.backward_s": per_epoch("stage.backward"),
        "engine.optimize_s": per_epoch("stage.optimize"),
        "engine.eval_s": per_epoch("stage.eval"),
        "engine.self_s": prefixed("stage.", self_time) / n,
        "engine.unattributed_s": self_time["epoch"] / n,
        "kernel.forward_s": per_epoch("kernel.forward"),
        "kernel.backward_local_s": per_epoch("kernel.backward_local"),
        "kernel.backward_reduce_s": per_epoch("kernel.backward_reduce"),
        "kernel.loss_s": per_epoch("kernel.loss"),
        "kernel.calls": prefixed("kernel.", count) / n,
        "transport.fp_s": per_epoch("transport.fp"),
        "transport.bp_s": per_epoch("transport.bp", "transport.reverse"),
        "transport.self_s": prefixed("transport.", self_time) / n,
        "transport.channels": (
            count["codec.fp_encode"] + count["codec.bp_encode"]
        ) / n,
        "codec.fp_encode_s": per_epoch("codec.fp_encode"),
        "codec.fp_decode_s": per_epoch("codec.fp_decode"),
        "codec.bp_encode_s": per_epoch("codec.bp_encode"),
        "codec.bp_decode_s": per_epoch("codec.bp_decode"),
        "codec.calls": prefixed("codec.", count) / n,
        "codec.fp_wire_ratio": ratio("codec.fp_encode", "wire", "raw"),
        "codec.bp_wire_ratio": ratio("codec.bp_encode", "wire", "raw"),
        "reqec.predicted_share": mean_attr("transport.fp", "share"),
        "tuner.bits": mean_attr("tuner.update", "bits"),
        "ps.pull_s": per_epoch("ps.pull"),
        "ps.push_s": per_epoch("ps.push"),
        "ps.apply_s": per_epoch("ps.apply"),
        "setup.partition_s": total["setup.partition"],
        "setup.normalize_s": total["setup.normalize"],
        "setup.workers_s": total["setup.workers"],
        "setup.spawn_s": total["setup.spawn"],
        "mp.kernel_wall_s": charged / n,
        "mp.overhead_s": (kernel_total - charged) / n,
    }


def layer_table(tracer: Tracer, epochs: list[int]) -> list[str]:
    """Human-readable per-layer total and self time per epoch."""
    sums = _aggregate(tracer, epochs)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for name in sums.total:
        if not name.startswith("setup."):
            prefix = name.split(".")[0]
            total[prefix] += sums.total[name]
            own[prefix] += sums.own[name]
    n = len(epochs)
    wall = total["epoch"] / n if n else 0.0
    lines = [f"{'layer':34s} {'total_s':>10s} {'self_s':>10s} {'self%':>7s}"]
    for prefix, label in LAYERS.items():
        if prefix not in total:
            continue
        share = 100.0 * own[prefix] / n / wall if wall else 0.0
        lines.append(
            f"{label:34s} {total[prefix] / n:10.5f} "
            f"{own[prefix] / n:10.5f} {share:6.1f}%"
        )
    return lines


def write_spans(tracer: Tracer, path: str) -> None:
    """Dump every span as one JSON object per line (times relative to
    the tracer's creation, in seconds)."""
    with open(path, "w", encoding="utf-8") as f:
        for index, span in enumerate(tracer.spans):
            record = {
                "id": index,
                "name": span[NAME],
                "start": span[START] - tracer.origin,
                "end": span[END] - tracer.origin,
                "parent": span[PARENT],
                "epoch": span[EPOCH],
                "workload": tracer.workload,
            }
            if span[ATTRS]:
                record.update(span[ATTRS])
            f.write(json.dumps(record) + "\n")
