"""Workload definitions and the metric catalogue of the training benchmark.

Every workload trains a GCN with hash partitioning and the default
``ECGraphConfig()`` (ReqEC-FP with the Bit-Tuner, ResEC-BP, T_tr = 10) on
a graph generated from the run's seed. The catalogue below is the single
source of ``BENCHMARK.json``: :func:`manifest` renders it and a test pins
the committed file to it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# Warm-up epochs before the timed window. They belong to ``setup_s``:
# epochs 0-1 pay lazy work (process spawn, first-call allocations).
WARMUP_EPOCHS = 2


@dataclass(frozen=True)
class Workload:
    """One set of training inputs.

    Attributes:
        nominal_epoch_s: Epoch wall time on the reference host (2-CPU
            Xeon, BLAS pinned to one thread). The timed window is sized
            from ``--seconds`` at this rate, so the epoch count — and with
            it every output of the run — depends only on ``--seconds``,
            never on how fast this particular run happens to be.
        target: Test accuracy whose first epoch is ``epochs_to_target``.
        floor: Lowest acceptable exact test accuracy after the window.
        reference: Workload whose outputs this one must equal bit for
            bit on the same seed (the sync/multiprocess invariant).
    """

    name: str
    why: str
    dataset: str
    workers: int
    num_layers: int
    hidden_dim: int
    execution: str
    nominal_epoch_s: float
    target: float
    floor: float
    profile: str = "full"
    reference: str | None = None

    def at_profile(self, profile: str) -> "Workload":
        """The same workload on a smaller generated graph.

        Accuracy gates only hold at the ``full`` profile; smaller graphs
        keep the structure (workers, layers, execution) for smoke runs.
        """
        if profile == self.profile:
            return self
        return dataclasses.replace(self, profile=profile, target=0.0, floor=0.0)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="reddit-sync",
            why=(
                "kernel-bound: dense reddit graph, 2 workers, inline "
                "execution; SpMM/GEMM take most of the epoch, so kernel "
                "work shows and codec work barely does"
            ),
            dataset="reddit",
            workers=2,
            num_layers=2,
            hidden_dim=128,
            execution="sync",
            nominal_epoch_s=0.15,
            # 29 of 30 seeds tried jump past 0.85 at the first T_tr
            # boundary (epoch 10); 2 of 10 stay below 0.90 early.
            target=0.85,
            floor=0.85,
        ),
        Workload(
            name="reddit-mp",
            why=(
                "same inputs as reddit-sync, kernels in 2 worker processes "
                "over shared memory with the codec serial in the "
                "supervisor: multiprocess vs sync as two named workloads"
            ),
            dataset="reddit",
            workers=2,
            num_layers=2,
            hidden_dim=128,
            execution="multiprocess",
            # Same nominal rate as reddit-sync so both windows hold the
            # same epochs and their outputs compare bit for bit.
            nominal_epoch_s=0.15,
            target=0.85,
            floor=0.85,
            reference="reddit-sync",
        ),
        Workload(
            name="pubmed-halo",
            why=(
                "halo-bound: sparse pubmed graph on 8 workers, 3 layers; "
                "nearly every neighbour is remote, so codec, wire-format "
                "and transport work shows and kernel work barely does"
            ),
            dataset="pubmed",
            workers=8,
            num_layers=3,
            hidden_dim=64,
            execution="sync",
            nominal_epoch_s=0.36,
            # 0.84 is first reached anywhere from epoch 5 to 11 across
            # seeds; 0.62 is crossed at epoch 5 by 25 of 30 seeds tried
            # (the rest at 4 or 6).
            target=0.62,
            floor=0.80,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def entry(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.name, "unit": self.unit, "better": self.better,
        }
        if self.bound is not None:
            out["bound"] = self.bound
        return out


# Bounds are about three times the spread (IQR over median) seen across
# ten seeds on a 2-CPU host, capped at 0.25. Wall-clock metrics drift
# 10-20% between runs there, and the exact ones (bytes, accuracy) vary
# with the generated graph; see README.md.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("epoch_s", "s", "lower", 0.25),
    Metric("modelled_epoch_s", "s", "lower", 0.25),
    Metric("comm_mb_per_epoch", "MB", "lower", 0.25),
    Metric("test_acc", "ratio", "higher", 0.05),
    Metric("epochs_to_target", "epochs", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
]

_S, _C = "s", "count"
PER_LAYER = [
    Metric(name, unit, better)
    for name, unit, better in (
        # engine.stages
        ("engine.halo_plan_s", _S, "lower"),
        ("engine.forward_s", _S, "lower"),
        ("engine.backward_s", _S, "lower"),
        ("engine.optimize_s", _S, "lower"),
        ("engine.eval_s", _S, "lower"),
        ("engine.self_s", _S, "lower"),
        ("engine.unattributed_s", _S, "lower"),
        # engine.executor
        ("kernel.forward_s", _S, "lower"),
        ("kernel.backward_local_s", _S, "lower"),
        ("kernel.backward_reduce_s", _S, "lower"),
        ("kernel.loss_s", _S, "lower"),
        ("kernel.calls", _C, "lower"),
        # engine.transport
        ("transport.fp_s", _S, "lower"),
        ("transport.bp_s", _S, "lower"),
        ("transport.self_s", _S, "lower"),
        ("transport.channels", _C, "lower"),
        # core policies and compression
        ("codec.fp_encode_s", _S, "lower"),
        ("codec.fp_decode_s", _S, "lower"),
        ("codec.bp_encode_s", _S, "lower"),
        ("codec.bp_decode_s", _S, "lower"),
        ("codec.calls", _C, "lower"),
        ("codec.fp_wire_ratio", "ratio", "lower"),
        ("codec.bp_wire_ratio", "ratio", "lower"),
        ("reqec.predicted_share", "ratio", "higher"),
        ("tuner.bits", "bits", "lower"),
        # cluster
        ("ps.pull_s", _S, "lower"),
        ("ps.push_s", _S, "lower"),
        ("ps.apply_s", _S, "lower"),
        ("traffic.fp_mb", "MB", "lower"),
        ("traffic.bp_mb", "MB", "lower"),
        ("traffic.param_mb", "MB", "lower"),
        ("traffic.messages", _C, "lower"),
        ("modelled.compute_s", _S, "lower"),
        ("modelled.comm_s", _S, "lower"),
        # set-up
        ("setup.partition_s", _S, "lower"),
        ("setup.normalize_s", _S, "lower"),
        ("setup.workers_s", _S, "lower"),
        ("setup.warmup_s", _S, "lower"),
        ("setup.spawn_s", _S, "lower"),
        # mp
        ("mp.kernel_wall_s", _S, "lower"),
        ("mp.overhead_s", _S, "lower"),
        # the tracing itself
        ("trace.overhead_s", _S, "lower"),
    )
]


def manifest() -> dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [m.entry() for m in END_TO_END],
        "per_layer": [m.entry() for m in PER_LAYER],
    }
