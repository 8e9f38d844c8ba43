"""The GCN forward/backward linear algebra (paper Eqs. 2-6).

These are the *local* kernels each worker runs between communication
steps. ``A_local`` is the worker's slice of the normalized adjacency: a
``(num_local, num_local + num_halo)`` sparse matrix whose columns follow
the worker's compact vertex order (local vertices first, then the halo).

Forward (Eq. 2-3), with the DGL-style ordering optimization the paper
adopts (compute ``X W`` first when the input dimension is larger):

    M^l = A_local @ H_cat          (aggregate)        [aggregate-first]
    Z^l = M^l @ W + b
  or
    Z^l = A_local @ (H_cat @ W) + b                   [transform-first]

The first layer's input ``H_cat^0 = [X; X_halo]`` is constant when the
halo features are cached, so its aggregation ``M^1`` is too: callers
pass it in precomputed (``layer_forward(..., aggregated=M^1)``). The
aggregate-first ordering then skips the SpMM; the transform-first one
still computes ``A_local @ (H_cat @ W)`` (the cheaper product changes
float rounding) but carries ``M^1`` for the weight gradient.

Backward (Eq. 4-6), using that the graphs here are symmetric so
``A^T = A``:

    G^L = dL/dZ^L                           (from the loss)
    dH^{l-1}_local = A_local @ G_cat^l  ... then  @ W^T, Hadamard sigma'
    Y^{l-1} = (M^l)^T G^l   where  M^l = A H^{l-1}    (weight gradient)
    grad_b  = sum_rows(G^l)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from repro.nn.activations import Activation

__all__ = ["LayerForwardCache", "layer_forward", "layer_backward_inputs",
           "weight_gradient", "bias_gradient"]


@dataclass
class LayerForwardCache:
    """Per-layer forward state a worker keeps for the backward pass.

    Attributes:
        aggregated: ``M^l = A_local @ H_cat`` — stored when the
            aggregate-first ordering ran or the caller passed it in
            precomputed (the constant first hop); otherwise ``None``
            and the weight gradient recomputes it from ``h_cat``.
        h_cat: The concatenated input ``H_cat^{l-1}`` (local + halo rows).
        pre_activation: ``Z^l`` for the local vertices.
        output: ``H^l`` for the local vertices.
        transform_first: Which ordering produced this cache.
    """

    aggregated: np.ndarray | None
    h_cat: np.ndarray
    pre_activation: np.ndarray
    output: np.ndarray
    transform_first: bool


def layer_forward(
    a_local: csr_matrix,
    h_cat: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    activation: Activation,
    is_last: bool,
    transform_first: bool | None = None,
    aggregated: np.ndarray | None = None,
) -> LayerForwardCache:
    """Run one GCN layer on a worker's local vertices.

    Args:
        a_local: ``(n_local, n_local + n_halo)`` normalized adjacency rows.
        h_cat: ``(n_local + n_halo, d_in)`` concatenated embeddings.
        weight: ``(d_in, d_out)``.
        bias: ``(d_out,)`` or None.
        activation: Hidden activation; skipped on the last layer, whose
            logits go straight into softmax cross-entropy.
        transform_first: Force an ordering; ``None`` picks the cheaper one
            (``d_in > d_out`` => transform first), mirroring DGL.
        aggregated: Precomputed ``a_local @ h_cat`` (the constant first
            hop). Aggregate-first uses it instead of the SpMM;
            transform-first keeps its own product order and only carries
            it in the cache for :func:`weight_gradient`.
    """
    d_in, d_out = weight.shape
    if h_cat.shape[1] != d_in:
        raise ValueError(
            f"h_cat dim {h_cat.shape[1]} does not match weight in-dim {d_in}"
        )
    if transform_first is None:
        transform_first = d_in > d_out

    if transform_first:
        z = a_local @ (h_cat @ weight)
    else:
        if aggregated is None:
            aggregated = a_local @ h_cat
        z = aggregated @ weight
    if bias is not None:
        z = z + bias
    z = z.astype(np.float32)
    h = z if is_last else activation(z).astype(np.float32)
    return LayerForwardCache(
        aggregated=aggregated,
        h_cat=h_cat,
        pre_activation=z,
        output=h,
        transform_first=transform_first,
    )


def layer_backward_inputs(
    a_local: csr_matrix,
    g_cat: np.ndarray,
    weight: np.ndarray,
    pre_activation_prev: np.ndarray,
    activation: Activation,
) -> np.ndarray:
    """Propagate ``G^l`` one layer down: Eq. 5 for the local vertices.

    Args:
        a_local: Local adjacency rows (symmetric graph, so it also plays
            the role of ``A^T`` rows).
        g_cat: ``(n_local + n_halo, d_out)`` concatenated ``G^l`` rows —
            local rows first, then halo rows fetched from the owners.
        weight: ``W^{l-1}`` mapping ``d_in -> d_out``.
        pre_activation_prev: ``Z^{l-1}`` for the local vertices.
        activation: The activation whose derivative gates the gradient.

    Returns:
        ``G^{l-1}`` rows for the local vertices.
    """
    dh = (a_local @ g_cat) @ weight.T
    return (dh * activation.derivative(pre_activation_prev)).astype(np.float32)


def weight_gradient(
    cache: LayerForwardCache,
    a_local: csr_matrix,
    g_local: np.ndarray,
) -> np.ndarray:
    """Worker-local share of ``Y^{l-1} = (A H^{l-1})^T G^l`` (Eq. 6).

    Uses the forward cache's ``M^l = A_local H_cat`` when it holds one
    (aggregate-first, or a precomputed first hop); a transform-first
    layer without one recomputes it sparsely here. The full gradient is the sum of these shares across workers,
    which the parameter servers perform.
    """
    aggregated = cache.aggregated
    if aggregated is None:
        aggregated = a_local @ cache.h_cat
    return (aggregated.T @ g_local).astype(np.float32)


def bias_gradient(g_local: np.ndarray) -> np.ndarray:
    """Worker-local share of the bias gradient: column sums of ``G^l``."""
    return g_local.sum(axis=0).astype(np.float32)
