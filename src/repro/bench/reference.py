"""Reference codec kernels, kept for benchmarks and cross-checks.

These are the original implementations of the codec's hot path:

* :func:`pack_bits_reference` / :func:`unpack_bits_reference` expand
  every value into an ``(n, bits)`` bit matrix and let numpy's
  ``packbits`` / a matrix-vector product do the rest. Correct and
  obvious, but the intermediate bit matrix costs ``8x`` the packed size
  in memory traffic, which made them the hottest kernels in a training
  step.
* :func:`encode_ids_reference` computes bucket ids through int64 and
  ``np.clip`` into uint32; :func:`decode_reference` unpacks the ids and
  gathers the bucket table through them, then copies to float32.

The production kernels in :mod:`repro.compression.quantization` compute
the same bytes and floats with narrower ids and fewer passes. Tests
assert bit-identical output against these references, and the bench
suite reports the speedup per width (``BENCH_core.json``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_bits_reference",
    "unpack_bits_reference",
    "encode_ids_reference",
    "decode_reference",
]


def pack_bits_reference(values: np.ndarray, bits: int) -> np.ndarray:
    """Original bit-matrix ``pack_bits``; layout-identical, slower."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    flat = np.ascontiguousarray(values, dtype=np.uint32).ravel()
    if flat.size and int(flat.max()) >= (1 << bits):
        raise ValueError(f"value {int(flat.max())} does not fit in {bits} bits")
    shifts = np.arange(bits, dtype=np.uint32)
    bit_matrix = ((flat[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel(), bitorder="little")


def unpack_bits_reference(
    buffer: np.ndarray, bits: int, count: int
) -> np.ndarray:
    """Original bit-matrix ``unpack_bits``; layout-identical, slower."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    raw = np.unpackbits(
        np.ascontiguousarray(buffer, dtype=np.uint8),
        count=count * bits,
        bitorder="little",
    )
    bit_matrix = raw.reshape(count, bits).astype(np.uint32)
    powers = (np.uint32(1) << np.arange(bits, dtype=np.uint32))
    return bit_matrix @ powers


def encode_ids_reference(
    quantizer,
    matrix: np.ndarray,
    lo: float | None = None,
    hi: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Original ``BucketQuantizer.encode_ids``: uint32 ids via int64.

    Takes the quantizer as its first argument, so it can stand in for
    the method (``BucketQuantizer.encode_ids = encode_ids_reference``).
    """
    data = np.asarray(matrix, dtype=np.float32)
    if data.size == 0:
        domain_lo = 0.0 if lo is None else float(lo)
        domain_hi = 0.0 if hi is None else float(hi)
        if domain_hi < domain_lo:
            raise ValueError(
                f"invalid domain: [{domain_lo}, {domain_hi}]"
            )
        reps = quantizer.representatives(domain_lo, domain_hi)
        return (
            np.zeros(0, dtype=np.uint32), reps, domain_lo, domain_hi
        )
    domain_lo = float(data.min()) if lo is None else float(lo)
    domain_hi = float(data.max()) if hi is None else float(hi)
    if domain_hi < domain_lo:
        raise ValueError(f"invalid domain: [{domain_lo}, {domain_hi}]")

    buckets = quantizer.num_buckets
    span = domain_hi - domain_lo
    if span <= 0.0:
        ids = np.zeros(data.size, dtype=np.uint32)
    else:
        width = span / buckets
        scaled = (data.ravel() - domain_lo) / width
        ids = np.clip(scaled.astype(np.int64), 0, buckets - 1).astype(
            np.uint32
        )
    reps = quantizer.representatives(domain_lo, domain_hi)
    return ids, reps, domain_lo, domain_hi


def decode_reference(quantized) -> np.ndarray:
    """Original ``QuantizedMatrix.decode``: unpack, gather, copy.

    Takes the matrix as its first argument, so it can stand in for the
    method (``QuantizedMatrix.decode = decode_reference``).
    """
    ids = unpack_bits_reference(
        quantized.packed, quantized.bits, quantized.num_elements
    )
    return quantized.bucket_values[ids].reshape(quantized.shape).astype(
        np.float32
    )
