"""Distributed Graph Attention Network (GAT) on the EC-Graph substrate.

The paper (section III-B) claims EC-Graph generalizes beyond GCN to any
model exchanging the same message types: "GAT fetches embeddings from
in-neighbors in FP and embedding gradients from out-neighbors in BP".
This module delivers that claim: a multi-head, head-averaging GAT whose
forward halo exchange is the ordinary embedding fetch (so ReqEC-FP
applies unchanged), and whose backward pass uses the transport's
*reverse* exchange — consumers push partial gradients of the remote
embeddings they attended over back to the owners (so ResEC-BP applies
to those messages).

The attention math (hand-derived gradients, verified against finite
differences in the test suite) lives in
:class:`repro.engine.backends.GATBackend`; ``GATTrainer`` is the facade
that selects it, sharing the staged forward/backward plumbing with GCN
and SAGE.
"""

from __future__ import annotations

from repro.core.trainer import ECGraphTrainer
from repro.engine import GATBackend
from repro.engine.backends import (
    attn_dst_name,
    attn_src_name,
    head_weight_name,
)

__all__ = ["GATTrainer", "attn_src_name", "attn_dst_name",
           "head_weight_name"]


class GATTrainer(ECGraphTrainer):
    """Full-batch distributed GAT training (``num_heads`` averaged heads).

    Reuses the ECGraphTrainer's setup (partitioning, worker states,
    parameter servers, policies, transport) and swaps in the GAT
    backend's per-layer math. The forward policy (raw / compress /
    ReqEC-FP) governs the embedding fetches exactly as for GCN; the
    backward policy (raw / compress / ResEC-BP) governs the reverse
    partial-gradient pushes.
    """

    def __init__(self, *args, num_heads: int = 1, **kwargs):
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        super().__init__(*args, **kwargs)
        self.num_heads = num_heads

    def _make_backend(self) -> GATBackend:
        return GATBackend(num_heads=self.num_heads)
