"""Drives ``ECGraphTrainer`` through its public API and measures it.

One benchmark run on one workload:

1. generates the graph from the seed (``load_dataset(..., seed=)``);
2. builds a trainer :data:`SETUP_REPEATS` times; each build runs set-up
   plus :data:`WARMUP_EPOCHS` warm-up epochs (``setup_s`` is the median),
   and the last one goes on to the timed window — a whole number of
   T_tr periods, sized from ``--seconds`` at the workload's nominal
   epoch rate;
3. evaluates exact test accuracy and runs the correctness checks.

With tracing on, an untraced and a traced trainer each run half the
window, the traced one under :func:`tracer.install`; the per-layer
metrics come from its spans and its outputs must equal the untraced
trainer's bit for bit.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import host
from perfbench import tracer as tracing
from perfbench.workloads import PER_LAYER, WARMUP_EPOCHS, WORKLOADS, Workload

SETUP_REPEATS = 5
MB = 1e6


@dataclass(frozen=True)
class EpochRow:
    """What one epoch produced, measured from outside."""

    epoch: int
    wall_s: float
    loss: float
    bytes_sent: int
    modelled_s: float
    compute_s: float
    comm_s: float
    test_accuracy: float
    fp_bytes: int
    bp_bytes: int
    param_bytes: int
    messages: int


@dataclass
class TrainingRun:
    """One trainer: set-up, warm-up and (maybe) the timed window."""

    setup_s: float = 0.0
    rows: list[EpochRow] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    test_acc: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def window(self) -> list[EpochRow]:
        return self.rows[WARMUP_EPOCHS:]

    def fingerprint(self) -> dict[str, Any]:
        """The outputs that must repeat exactly for the same inputs."""
        return {
            "losses": [row.loss.hex() for row in self.rows],
            "bytes": [row.bytes_sent for row in self.rows],
        }


@dataclass
class Result:
    """What the benchmark prints for one run."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    checks: list[tuple[str, bool, str]]
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def summary(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def period() -> int:
    """T_tr: every period ships exact embeddings once (ReqEC-FP)."""
    from repro import ECGraphConfig

    return ECGraphConfig().trend_period


def window_epochs(workload: Workload, seconds: float) -> int:
    """Epochs in the timed window: whole T_tr periods, at least one."""
    t_tr = period()
    periods = max(1, round(seconds / (t_tr * workload.nominal_epoch_s)))
    return periods * t_tr


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children
    (the worker processes under multiprocess), from ``VmHWM``."""
    pids = [os.getpid(), *host.child_pids()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb * 1024 / MB


def _category_bytes(delta: Any, *names: str) -> int:
    return sum(delta.category_bytes.get(name, 0) for name in names)


def train(
    workload: Workload,
    graph: Any,
    epochs: int,
    tracer: tracing.Tracer | None = None,
) -> TrainingRun:
    """Build a trainer, run warm-up plus ``epochs`` timed epochs.

    ``setup_s`` covers construction to the end of the warm-up epochs. An
    epoch that raises or returns a non-finite loss is a failed operation
    and ends the run.
    """
    from repro import ClusterSpec, ECGraphConfig, ECGraphTrainer, ModelConfig

    trace = tracer if tracer is not None else tracing.Tracer(workload.name)
    run = TrainingRun()
    gc.collect()
    start = time.perf_counter()
    trainer = ECGraphTrainer(
        graph,
        ModelConfig(
            model="gcn",
            num_layers=workload.num_layers,
            hidden_dim=workload.hidden_dim,
        ),
        ClusterSpec(num_workers=workload.workers),
        ECGraphConfig(execution=workload.execution),
        partitioner="hash",
    )
    try:
        with trace.span("setup"):
            trainer.setup()
        meter = trainer.runtime.meter
        for t in range(WARMUP_EPOCHS + epochs):
            if t == WARMUP_EPOCHS:
                run.setup_s = time.perf_counter() - start
            run.attempted += 1
            trace.epoch = t
            before = meter.snapshot()
            try:
                tick = time.perf_counter()
                with trace.span("epoch"):
                    result = trainer.run_epoch(t)
                wall = time.perf_counter() - tick
            except Exception as exc:  # any epoch error is a failed operation
                run.failed += 1
                print(f"epoch {t} failed: {exc!r}")
                break
            finally:
                trace.epoch = None
            delta = meter.snapshot().delta(before)
            breakdown = result.breakdown
            run.rows.append(EpochRow(
                epoch=t,
                wall_s=wall,
                loss=float(result.loss),
                bytes_sent=int(breakdown.bytes_sent),
                modelled_s=breakdown.total_seconds,
                compute_s=breakdown.compute_seconds,
                comm_s=breakdown.comm_seconds,
                test_accuracy=result.test_accuracy,
                fp_bytes=_category_bytes(delta, "fp_embeddings"),
                bp_bytes=_category_bytes(delta, "bp_gradients"),
                param_bytes=_category_bytes(delta, "param_pull", "param_push"),
                messages=delta.total_messages,
            ))
            if not math.isfinite(result.loss):
                run.failed += 1
                print(f"epoch {t} loss is {result.loss}")
                break
        if not run.setup_s:
            run.setup_s = time.perf_counter() - start
        if epochs and not run.failed:
            run.test_acc = trainer.evaluate_exact()["test"]
        run.peak_rss_mb = peak_rss_mb()
    finally:
        trainer.close()
    return run


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _window_mean(rows: list[EpochRow], attr: str) -> float:
    """Per-epoch mean over the window (whole T_tr periods, so each period's
    exact-embedding epoch is counted once per ten)."""
    return statistics.fmean(getattr(row, attr) for row in rows)


def epochs_to_target(rows: list[EpochRow], target: float) -> int | None:
    """Epochs run until the per-epoch test accuracy first reaches
    ``target`` (warm-up included), or None if it never did."""
    for row in rows:
        if row.test_accuracy >= target:
            return row.epoch + 1
    return None


def end_to_end(
    workload: Workload, main: TrainingRun, setups: list[float]
) -> dict[str, tuple[float, str]]:
    window = main.window
    reached = epochs_to_target(main.rows, workload.target)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "epoch_s": (_window_mean(window, "wall_s"), "s"),
        "modelled_epoch_s": (_window_mean(window, "modelled_s"), "s"),
        "comm_mb_per_epoch": (_window_mean(window, "bytes_sent") / MB, "MB"),
        "test_acc": (main.test_acc, "ratio"),
        # Not reached is a failed check; report the epochs run instead.
        "epochs_to_target": (
            float(reached if reached is not None else len(main.rows)),
            "epochs",
        ),
        "peak_rss_mb": (main.peak_rss_mb, "MB"),
    }


def per_layer(
    tracer: tracing.Tracer, traced: TrainingRun, untraced: TrainingRun
) -> dict[str, tuple[float, str]]:
    window = traced.window
    values = tracing.summarize(tracer, [row.epoch for row in window])
    values.update({
        "traffic.fp_mb": _window_mean(window, "fp_bytes") / MB,
        "traffic.bp_mb": _window_mean(window, "bp_bytes") / MB,
        "traffic.param_mb": _window_mean(window, "param_bytes") / MB,
        "traffic.messages": _window_mean(window, "messages"),
        "modelled.compute_s": _window_mean(window, "compute_s"),
        "modelled.comm_s": _window_mean(window, "comm_s"),
        "setup.warmup_s": sum(r.wall_s for r in traced.rows[:WARMUP_EPOCHS]),
        "trace.overhead_s": (
            _window_mean(window, "wall_s")
            - _window_mean(untraced.window, "wall_s")
        ),
    })
    return {m.name: (values[m.name], m.unit) for m in PER_LAYER}


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def same_outputs(a: TrainingRun, b: TrainingRun, epochs: int) -> str:
    """'' when the first ``epochs`` losses and bytes agree bit for bit,
    else what differs."""
    fa, fb = a.fingerprint(), b.fingerprint()
    for key in ("losses", "bytes"):
        if len(fa[key]) < epochs or len(fb[key]) < epochs:
            return f"fewer than {epochs} epochs to compare"
        for t, (x, y) in enumerate(zip(fa[key][:epochs], fb[key][:epochs])):
            if x != y:
                return f"{key} differ at epoch {t}: {x} != {y}"
    return ""


def source_digest(root: Path) -> str:
    """Hash of the program's sources: records are only comparable
    between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class RecordStore:
    """Outputs of earlier runs, for the same-seed identity checks.

    One JSON file per (workload, profile, seed, window, source digest);
    a later run with the same key must reproduce it exactly.
    """

    def __init__(self, directory: Path, digest: str) -> None:
        self.directory = directory
        self.digest = digest

    def _path(self, workload: Workload, seed: int, epochs: int) -> Path:
        return self.directory / (
            f"{workload.name}-{workload.profile}-s{seed}-e{epochs}"
            f"-{self.digest}.json"
        )

    def compare(
        self, workload: Workload, seed: int, epochs: int,
        record: dict[str, Any], save: bool = True,
    ) -> str | None:
        """None when no earlier record exists, '' when it matches, else
        the first field that differs."""
        path = self._path(workload, seed, epochs)
        if path.exists():
            earlier = json.loads(path.read_text(encoding="utf-8"))
            for key in sorted(record):
                if earlier.get(key) != record[key]:
                    return f"{key} differs from {path.name}"
            return ""
        if save:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(record), encoding="utf-8")
            os.replace(tmp, path)
        return None


def _record(run: TrainingRun, workload: Workload) -> dict[str, Any]:
    """Per-epoch losses and bytes (so ``comm_mb_per_epoch``), exact test
    accuracy and ``epochs_to_target``."""
    return {
        **run.fingerprint(),
        "test_acc": run.test_acc.hex(),
        "epochs_to_target": epochs_to_target(run.rows, workload.target),
    }


def run_checks(
    workload: Workload,
    seed: int,
    main: TrainingRun,
    repeats: list[TrainingRun],
    store: RecordStore | None,
    twin: TrainingRun | None = None,
    reference: TrainingRun | None = None,
) -> list[tuple[str, bool, str]]:
    """Every correctness check of one run: (name, passed, detail).

    ``twin`` is a second trainer over the same window that must match
    ``main`` exactly (the traced/untraced pair); ``reference`` is a
    sync-execution trainer ``main`` must match over its epochs.
    """
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, problem: str | None) -> None:
        # None: nothing to compare against yet (first run with this key).
        detail = "no earlier record" if problem is None else problem
        checks.append((name, not problem, detail))

    epochs = len(main.window)
    reached = epochs_to_target(main.rows, workload.target)
    check(
        "test_acc_floor",
        "" if main.test_acc >= workload.floor
        else f"{main.test_acc:.4f} < floor {workload.floor}",
    )
    check(
        "target_reached",
        "" if reached is not None
        else f"test accuracy never reached {workload.target}",
    )
    for i, other in enumerate(repeats):
        check(f"warmup_repeat_{i}", same_outputs(main, other, WARMUP_EPOCHS))
    if twin is not None:
        check("traced_equals_untraced",
              same_outputs(main, twin, WARMUP_EPOCHS + epochs)
              or ("" if main.test_acc == twin.test_acc
                  else "exact test accuracy differs"))
    if reference is not None:
        check("multiprocess_equals_sync",
              same_outputs(main, reference, len(reference.rows)))
    if store is not None and not main.failed:
        record = _record(main, workload)
        check("same_seed_record", store.compare(workload, seed, epochs, record))
        if workload.reference is not None:
            ref = dataclasses.replace(
                WORKLOADS[workload.reference], profile=workload.profile
            )
            check(
                f"equals_{workload.reference}_record",
                store.compare(ref, seed, epochs, record, save=False),
            )
    return checks


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------
def _sync_reference(workload: Workload, graph: Any) -> TrainingRun | None:
    """A sync trainer over warm-up plus one period, for workloads whose
    outputs must equal sync execution bit for bit."""
    if workload.reference is None:
        return None
    sync = dataclasses.replace(workload, execution="sync")
    return train(sync, graph, period())


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    state_dir: Path | None = None,
    digest: str = "",
) -> Result:
    """One benchmark run; ``state_dir`` holds records and span dumps."""
    from repro import load_dataset

    graph = load_dataset(workload.dataset, profile=workload.profile, seed=seed)
    store = (
        RecordStore(state_dir / "records", digest) if state_dir else None
    )
    notes: list[str] = []
    if not trace:
        epochs = window_epochs(workload, seconds)
        repeats = [train(workload, graph, 0) for _ in range(SETUP_REPEATS - 1)]
        main = train(workload, graph, epochs)
        reference = _sync_reference(workload, graph)
        runs = [*repeats, main] + ([reference] if reference else [])
        checks = run_checks(
            workload, seed, main, repeats, store, reference=reference
        )
        metrics = end_to_end(
            workload, main, [r.setup_s for r in (*repeats, main)]
        )
    else:
        epochs = window_epochs(workload, seconds / 2)
        untraced = train(workload, graph, epochs)
        tracer = tracing.Tracer(workload.name)
        with tracing.install(tracer):
            traced = train(workload, graph, epochs, tracer=tracer)
        reference = _sync_reference(workload, graph)
        runs = [untraced, traced] + ([reference] if reference else [])
        checks = run_checks(
            workload, seed, traced, [], store,
            twin=untraced, reference=reference,
        )
        metrics = per_layer(tracer, traced, untraced)
        notes += tracing.layer_table(tracer, [r.epoch for r in traced.window])
        if state_dir is not None:
            state_dir.mkdir(parents=True, exist_ok=True)
            path = state_dir / f"spans-{workload.name}-s{seed}.jsonl"
            tracing.write_spans(tracer, str(path))
            notes.append(f"{len(tracer.spans)} spans written to {path}")
    failed_checks = sum(not ok for _, ok, _ in checks)
    return Result(
        metrics=metrics,
        attempted=sum(r.attempted for r in runs) + len(checks),
        failed=sum(r.failed for r in runs) + failed_checks,
        checks=checks,
        notes=notes,
    )
