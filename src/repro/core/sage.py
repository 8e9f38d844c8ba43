"""Distributed GraphSAGE (mean aggregator, concatenation variant).

The paper evaluates GraphSAGE alongside GCN, noting both "enjoy similar
performance improvements" from EC-Graph's optimizations. The SAGE layer
keeps separate transforms for the vertex itself and the neighbour mean:

    Z_i = H_i W_self + mean_{j in N(i)} H_j  W_neigh + b

which is the concatenation form ``[H_i || mean] W`` written with the
weight matrix split in two. The halo exchange pattern is identical to
GCN — embeddings forward, embedding gradients backward — so every
EC-Graph policy (compression, ReqEC-FP, ResEC-BP, delayed) applies
unchanged.

The layer math lives in :class:`repro.engine.backends.SAGEBackend`;
``SAGETrainer`` is the facade that selects it, sharing the staged
forward/backward plumbing with GCN and GAT.
"""

from __future__ import annotations

from repro.core.trainer import ECGraphTrainer
from repro.engine import SAGEBackend
from repro.engine.backends import self_weight_name

__all__ = ["SAGETrainer", "self_weight_name"]


class SAGETrainer(ECGraphTrainer):
    """Full-batch distributed GraphSAGE-mean training.

    ``weight_name(l)`` holds ``W_neigh`` and :func:`self_weight_name`
    holds ``W_self``; the base setup (row normalization is selected
    automatically for ``model='sage'``) provides the local mean
    aggregation rows, and the backend adds the transposed-weight rows
    needed by the asymmetric backward aggregation.
    """

    def setup(self) -> None:
        if self._setup_done:
            return
        if self.model_config.model != "sage":
            raise ValueError(
                "SAGETrainer requires ModelConfig(model='sage'); got "
                f"{self.model_config.model!r}"
            )
        super().setup()

    def _make_backend(self) -> SAGEBackend:
        return SAGEBackend()
