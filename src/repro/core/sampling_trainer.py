"""Sampling-based training (EC-Graph-S and the DistDGL baseline).

The paper's sampling mode keeps the graph-centered architecture but caps
each vertex's aggregation at a per-layer *fanout* (e.g. ``(10, 5)`` for a
2-layer GCN), which shrinks both compute and the remote halo that must be
fetched. Two sampling disciplines are modelled:

* **offline** (EC-Graph-S, AGL): neighbours are sampled once during
  preprocessing and reused every epoch — the sampling cost lands in the
  Fig. 9 preprocessing bar;
* **online** (DistDGL): neighbours are resampled every iteration, so the
  sampling cost recurs in every epoch — the paper observes this dominates
  DistDGL's time on constrained clusters.

Kept edges are rescaled by ``degree / fanout`` so the sampled aggregation
is an unbiased estimator of the full sum. ReqEC-FP keeps dense
per-channel trend state and is therefore not offered in sampling mode
(the paper describes it for full-batch training); EC-Graph-S runs plain
quantization forward and ResEC-BP backward.

The sampling machinery itself lives in
:class:`repro.engine.backends.SampledGCNBackend`;
``SampledECGraphTrainer`` is the facade that selects it and folds the
offline sampling pass into preprocessing.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.messages import ChannelKey
from repro.core.resec_bp import ResECPolicy
from repro.core.trainer import ECGraphTrainer
from repro.engine import SampledGCNBackend
from repro.graph.attributed import AttributedGraph
from repro.obs.tracing import monotonic_now
from repro.partition.base import Partition

__all__ = ["SampledECGraphTrainer"]


class SampledECGraphTrainer(ECGraphTrainer):
    """Distributed GCN training with per-layer neighbour fanouts."""

    def __init__(
        self,
        graph: AttributedGraph,
        model_config: ModelConfig,
        cluster_spec: ClusterSpec,
        fanouts: list[int],
        config: ECGraphConfig | None = None,
        online: bool = False,
        sampling_speedup: float = 20.0,
        partitioner: str = "hash",
        partition: Partition | None = None,
    ):
        """Args:
        fanouts: Per-layer neighbour caps, ``fanouts[l-1]`` for layer
            ``l``; length must equal the model's layer count.
        online: Resample every iteration (DistDGL) instead of once
            (EC-Graph-S / AGL).
        sampling_speedup: Divide measured Python sampling time by this to
            emulate native sampling kernels (same rationale as the codec
            speedup, see DESIGN.md).
        """
        config = config or ECGraphConfig(fp_mode="compress", bp_mode="resec")
        if config.fp_mode == "reqec":
            raise ValueError(
                "ReqEC-FP is a full-batch mechanism; use fp_mode='compress' "
                "or 'raw' in sampling mode"
            )
        if "delayed" in (config.fp_mode, config.bp_mode):
            raise ValueError(
                "delayed aggregation keeps dense per-channel caches and "
                "cannot track per-iteration sampled subsets; use raw or "
                "compress/resec in sampling mode"
            )
        if len(fanouts) != model_config.num_layers:
            raise ValueError(
                f"{len(fanouts)} fanouts for {model_config.num_layers} layers"
            )
        if any(f < 1 for f in fanouts):
            raise ValueError("fanouts must be >= 1")
        if sampling_speedup <= 0:
            raise ValueError("sampling_speedup must be positive")
        super().__init__(
            graph, model_config, cluster_spec, config,
            partitioner=partitioner, partition=partition,
        )
        self.fanouts = list(fanouts)
        self.online = online
        self.sampling_speedup = sampling_speedup
        self._rng = np.random.default_rng(config.seed + 1)

    def _make_backend(self) -> SampledGCNBackend:
        return SampledGCNBackend(
            self.fanouts, self.online, self.sampling_speedup, self._rng
        )

    # ------------------------------------------------------------------
    def setup(self) -> None:
        if self._setup_done:
            return
        super().setup()
        if isinstance(self._bp_policy, ResECPolicy):
            # Residual state spans each channel's full vertex list so
            # sampled subsets stay aligned across iterations.
            for layer in range(2, self.params.num_layers + 1):
                for state in self.workers:
                    for owner, wanted in state.requests.items():
                        key = ChannelKey(
                            layer=layer,
                            responder=owner,
                            requester=state.worker_id,
                        )
                        self._bp_policy.prime_residual(
                            key, wanted.shape[0], self.params.dims[layer]
                        )
        if not self.online:
            start = monotonic_now()
            with self.obs.span("sampling", mode="offline"):
                self.engine.backend.resample()
            self._preprocessing_seconds += (
                monotonic_now() - start
            ) / self.sampling_speedup
            self.engine.backend.sampled_once = True
