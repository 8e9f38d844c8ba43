"""B-bit bucket quantization — the paper's ``C_bits`` operator (section IV-A).

A matrix is compressed by dividing its value domain into ``2^B`` equal
buckets; every element is replaced by the ``B``-bit id of the bucket that
contains it, and the reply message carries the bucket representative
values so the requesting end can decode. Bucket ids are bit-packed, so a
``d``-dimensional float32 embedding shrinks from ``32 d`` bits to
``B d + 2^B * 32`` bits (the table cost amortizes over the vertices in a
message, as the paper notes).

Two table modes are provided:

* ``"table"`` (paper-faithful): the responder ships the ``2^B``
  representative values explicitly, exactly as Fig. 3 describes;
* ``"bounds"``: only ``(lo, hi)`` are shipped and the requester derives
  the midpoints — an obvious engineering refinement used by the
  ablation benchmarks.

Bucket ids are ``uint8`` (``uint16`` for ``B = 16``) from the moment
they are computed: :meth:`BucketQuantizer.encode_ids` scales in place in
float32, clamps the float and casts once. The bit-packing kernels are
pure arithmetic: widths that divide a byte merge neighbouring byte-wide
ids through a wider integer view, 16-bit ids reinterpret the buffer
directly, and irregular widths tree-merge adjacent fields
(b -> 2b -> 4b -> 8b bits) into byte-aligned 8-value blocks. No
``(n, bits)`` bit matrix is ever materialized — that intermediate costs
8-16x the payload in memory traffic and dominated the original
implementation (kept as :mod:`repro.bench.reference` for before/after
benchmarking). The wire layout is unchanged: little-endian-bit-first,
byte-identical to ``np.packbits(..., bitorder="little")`` on the
expanded bits.

:meth:`QuantizedMatrix.decode` never materializes the ids for widths
that divide a byte: a ``(256, 8 / B)`` byte table maps every packed byte
straight to its ``8 / B`` float32 representatives, so decoding is one
gather over the packed buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["pack_bits", "unpack_bits", "QuantizedMatrix", "BucketQuantizer"]

SUPPORTED_BITS = (1, 2, 4, 8, 16)

# Cached float64 midpoint offsets ``arange(2^B) + 0.5`` per bucket count;
# representative tables are ``lo + offsets * width``, so the arange is the
# only per-call allocation worth hoisting (the arithmetic must stay
# identical to keep decoded values bit-exact across calls).
_MIDPOINT_OFFSETS: dict[int, np.ndarray] = {}


def _midpoint_offsets(buckets: int) -> np.ndarray:
    offsets = _MIDPOINT_OFFSETS.get(buckets)
    if offsets is None:
        offsets = np.arange(buckets, dtype=np.float64) + 0.5
        offsets.setflags(write=False)
        _MIDPOINT_OFFSETS[buckets] = offsets
    return offsets


# Ids arrive from encode_ids as uint8/uint16; other integer inputs are
# read as uint32, as they always were.
_ID_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))

# Float32 at or past 2^63 (and NaN) has no int64 value; the original
# ``astype(int64)`` id formula gave such elements the platform's
# out-of-range cast result (bucket 0 on x86), which encode_ids keeps.
_INT64_EDGE = np.float32(2.0**63)


def _byte_fields(bits: int) -> np.ndarray:
    """``(256, 8 / bits)`` ids held by each byte value, low field first."""
    shifts = np.arange(0, 8, bits, dtype=np.uint8)
    fields = (np.arange(256, dtype=np.uint8)[:, None] >> shifts) & np.uint8(
        (1 << bits) - 1
    )
    fields = fields.astype(np.intp)
    fields.setflags(write=False)
    return fields


# Widths that divide a byte decode through a byte table (see decode).
_BYTE_FIELDS = {bits: _byte_fields(bits) for bits in (1, 2, 4, 8)}


def packed_size(count: int, bits: int) -> int:
    """Bytes needed to pack ``count`` values of ``bits`` bits each."""
    return (count * bits + 7) // 8


def pack_bits(values: np.ndarray, bits: int) -> np.ndarray:
    """Pack unsigned ``bits``-wide integers into a dense uint8 buffer.

    Values are laid out little-endian-bit-first; :func:`unpack_bits`
    inverts the layout exactly. Values must fit in ``bits`` bits.
    """
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    flat = np.ascontiguousarray(values).ravel()
    if flat.dtype not in _ID_DTYPES:
        flat = flat.astype(np.uint32)
    if flat.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if int(flat.max()) >= (1 << bits):
        raise ValueError(f"value {int(flat.max())} does not fit in {bits} bits")
    if bits == 8:
        return flat.astype(np.uint8)
    if bits == 16:
        return flat.astype("<u2").view(np.uint8)
    if bits == 1:
        # The values are the bits; packbits needs no expansion here.
        return np.packbits(flat.astype(np.uint8, copy=False), bitorder="little")
    if bits in (2, 4):
        # The 8/bits byte-wide ids of one output byte form a single
        # little-endian word; each right shift folds pairs of byte
        # lanes together, so the low byte ends up holding every field.
        per_byte = 8 // bits
        lanes = flat.astype(np.uint8, copy=False)
        if lanes.size % per_byte:
            lanes = np.concatenate(
                [lanes, np.zeros(per_byte - lanes.size % per_byte, np.uint8)]
            )
        word = lanes.view(f"<u{per_byte}")
        for level in range(per_byte.bit_length() - 1):
            word = word | (word >> word.dtype.type((8 - bits) << level))
        return word.astype(np.uint8)
    # Irregular widths (3, 5, 6, 7, 9-15): 8 values always span exactly
    # ``bits`` bytes, so each 8-value block ORs into a 64-bit (or, for
    # widths above 8, 128-bit) little-endian accumulator whose first
    # ``bits`` bytes are the block's wire bytes. Pure vectorized shifts;
    # no per-element scatter.
    total = packed_size(flat.size, bits)
    blocks = (flat.size + 7) // 8
    if bits < 8:
        # Pairwise tree merge: adjacent fields fuse b -> 2b -> 4b -> 8b
        # bits, staying in uint32 until a level would overflow 32 bits.
        # ~n element-ops total and no (blocks, 8) intermediate.
        padded = np.zeros(blocks * 8, dtype=np.uint32)
        padded[: flat.size] = flat
        merged = padded[0::2] | (padded[1::2] << np.uint32(bits))
        merged = merged[0::2] | (merged[1::2] << np.uint32(2 * bits))
        if 8 * bits <= 32:
            merged = merged[0::2] | (merged[1::2] << np.uint32(4 * bits))
            lanes = 4
            block_bytes = merged.astype("<u4").view(np.uint8).reshape(
                blocks, lanes
            )
        else:
            merged = merged[0::2].astype(np.uint64) | (
                merged[1::2].astype(np.uint64) << np.uint64(4 * bits)
            )
            lanes = 8
            block_bytes = merged.astype("<u8").view(np.uint8).reshape(
                blocks, lanes
            )
    else:
        # Bits 9-15: a block spans 8*bits <= 120 bits. Tree-merge pairs
        # (2b <= 30 bits, uint32) and quads (4b <= 60 bits, uint64),
        # then lay the two quads across a low and a high 64-bit lane —
        # the quad straddling the seam splits with one shift each way.
        padded = np.zeros(blocks * 8, dtype=np.uint32)
        padded[: flat.size] = flat
        pairs = padded[0::2] | (padded[1::2] << np.uint32(bits))
        quads = pairs[0::2].astype(np.uint64) | (
            pairs[1::2].astype(np.uint64) << np.uint64(2 * bits)
        )
        lo = quads[0::2] | (quads[1::2] << np.uint64(4 * bits))
        hi = quads[1::2] >> np.uint64(64 - 4 * bits)
        block_bytes = np.empty((blocks, 16), dtype=np.uint8)
        block_bytes[:, :8] = lo.astype("<u8").view(np.uint8).reshape(-1, 8)
        block_bytes[:, 8:] = hi.astype("<u8").view(np.uint8).reshape(-1, 8)
    return block_bytes[:, :bits].ravel()[:total]


def _checked_buffer(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    """``buffer`` as flat uint8, if it packs exactly ``count`` values."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    buf = np.ascontiguousarray(buffer, dtype=np.uint8).ravel()
    needed = packed_size(count, bits)
    if buf.size != needed:
        raise ValueError(
            f"packed buffer holds {buf.size} bytes but {count} values of "
            f"{bits} bits need exactly {needed}"
        )
    return buf


def unpack_bits(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Invert :func:`pack_bits`, recovering ``count`` integers.

    The buffer length must match ``count`` exactly: a short buffer cannot
    hold the promised values and a long one means the caller mis-sliced
    the wire payload — both raise ``ValueError`` instead of silently
    reading (or ignoring) stray bytes.
    """
    buf = _checked_buffer(buffer, bits, count)
    if count == 0:
        return np.zeros(0, dtype=np.uint32)
    if bits == 8:
        return buf.astype(np.uint32)
    if bits == 16:
        return buf.view("<u2").astype(np.uint32)
    if bits == 1:
        return np.unpackbits(buf, count=count, bitorder="little").astype(
            np.uint32
        )
    if bits in (2, 4):
        per_byte = 8 // bits
        mask = np.uint32((1 << bits) - 1)
        wide = buf.astype(np.uint32)
        out = np.empty(buf.size * per_byte, dtype=np.uint32)
        for lane in range(per_byte):
            out[lane::per_byte] = (wide >> np.uint32(lane * bits)) & mask
        return out[:count]
    # Irregular widths: the inverse of the 8-value block packing — load
    # each block's ``bits`` bytes into integer lanes and tree-split the
    # eight fields back out, 8b -> 4b -> 2b -> b (see pack_bits).
    blocks = (count + 7) // 8
    padded = np.zeros(blocks * bits, dtype=np.uint8)
    padded[: buf.size] = buf
    block_bytes = padded.reshape(blocks, bits)
    if 8 * bits <= 32:
        # The whole block fits a uint32; one broadcast shift splits all
        # eight fields without intermediate levels.
        lo_bytes = np.zeros((blocks, 4), dtype=np.uint8)
        lo_bytes[:, :bits] = block_bytes
        word = lo_bytes.view("<u4")  # (blocks, 1), broadcasts over lanes
        shifts = (np.arange(8, dtype=np.uint32) * bits).astype(np.uint32)
        fields = (word >> shifts) & np.uint32((1 << bits) - 1)
        return fields.ravel()[:count]
    quads = np.empty(
        blocks * 2, dtype=np.uint32 if 4 * bits <= 32 else np.uint64
    )
    if bits < 8:
        lo_bytes = np.zeros((blocks, 8), dtype=np.uint8)
        lo_bytes[:, :bits] = block_bytes
        word = lo_bytes.view("<u8").ravel()
        quads[0::2] = word & np.uint64((1 << (4 * bits)) - 1)
        quads[1::2] = word >> np.uint64(4 * bits)
    else:
        lo_bytes = np.zeros((blocks, 8), dtype=np.uint8)
        lo_bytes[:, :8] = block_bytes[:, :8]
        hi_bytes = np.zeros((blocks, 8), dtype=np.uint8)
        hi_bytes[:, : bits - 8] = block_bytes[:, 8:]
        lo = lo_bytes.view("<u8").ravel()
        hi = hi_bytes.view("<u8").ravel()
        quads[0::2] = lo & np.uint64((1 << (4 * bits)) - 1)
        quads[1::2] = (lo >> np.uint64(4 * bits)) | (
            hi << np.uint64(64 - 4 * bits)
        )
    pairs = np.empty(blocks * 4, dtype=np.uint32)
    pairs[0::2] = quads & quads.dtype.type((1 << (2 * bits)) - 1)
    pairs[1::2] = quads >> quads.dtype.type(2 * bits)
    mask = np.uint32((1 << bits) - 1)
    out = np.empty(blocks * 8, dtype=np.uint32)
    out[0::2] = pairs & mask
    out[1::2] = pairs >> np.uint32(bits)
    return out[:count]


@dataclass
class QuantizedMatrix:
    """A bucket-quantized matrix ready for the wire.

    Attributes:
        shape: Original matrix shape.
        bits: Bucket id width ``B``.
        packed: Bit-packed bucket ids (uint8 buffer).
        lo / hi: Value-domain bounds used by the quantizer.
        bucket_values: ``(2^B,)`` representative values (bucket midpoints).
        table_mode: ``"table"`` or ``"bounds"`` — what actually travels.
    """

    shape: tuple[int, ...]
    bits: int
    packed: np.ndarray
    lo: float
    hi: float
    bucket_values: np.ndarray
    table_mode: str = "table"

    @property
    def num_elements(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    def decode(self) -> np.ndarray:
        """Reconstruct the approximate matrix.

        Widths that divide a byte gather straight from the packed bytes
        through a ``(256, 8 / B)`` table of representatives; the packed
        buffer is held to the same exact length :func:`unpack_bits`
        demands. Other widths gather through the unpacked ids.
        """
        count = self.num_elements
        table = np.asarray(self.bucket_values, dtype=np.float32)
        fields = _BYTE_FIELDS.get(self.bits)
        if fields is None:
            values = np.take(table, unpack_bits(self.packed, self.bits, count))
        else:
            buf = _checked_buffer(self.packed, self.bits, count)
            values = np.take(table[fields], buf, axis=0).ravel()[:count]
        return values.reshape(self.shape)

    def payload_bytes(self) -> int:
        """Bytes this message occupies on the wire.

        Matches :mod:`repro.cluster.serialize` exactly: a 16-byte frame
        header, an 8-byte shape, 9 bytes of bits/lo/hi metadata, the
        packed ids, and — in ``table`` mode — the ``2^B`` float32 bucket
        representatives (``bounds`` mode derives them from lo/hi).
        """
        header = 16 + 8 + 9  # frame + shape + (bits, lo, hi)
        ids = self.packed.size
        table = self.bucket_values.size * 4 if self.table_mode == "table" else 0
        return header + ids + table


class BucketQuantizer:
    """The paper's ``C_bits``: uniform bucket quantization with B bits.

    The forward pass quantizes embeddings whose domain the paper treats as
    ``[0, 1]``; gradients are not normalized, so the responding end first
    computes ``(min, max)`` (Algorithm 6 lines 4-5). This implementation
    always derives the domain from the data unless explicit bounds are
    given, which covers both uses.
    """

    def __init__(self, bits: int, table_mode: str = "table"):
        if bits not in SUPPORTED_BITS:
            raise ValueError(
                f"bits must be one of {SUPPORTED_BITS}, got {bits}"
            )
        if table_mode not in ("table", "bounds"):
            raise ValueError(f"unknown table_mode {table_mode!r}")
        self.bits = bits
        self.table_mode = table_mode

    @property
    def num_buckets(self) -> int:
        return 1 << self.bits

    def representatives(self, lo: float, hi: float) -> np.ndarray:
        """The ``2^B`` bucket midpoints for the domain ``[lo, hi]``."""
        buckets = self.num_buckets
        span = hi - lo
        if span <= 0.0:
            return np.full(buckets, lo, dtype=np.float32)
        width = span / buckets
        return (lo + _midpoint_offsets(buckets) * width).astype(np.float32)

    def encode_ids(
        self,
        matrix: np.ndarray,
        lo: float | None = None,
        hi: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Quantize without packing: ``(flat ids, representatives, lo, hi)``.

        The hot half of :meth:`encode`, exposed so callers that need the
        raw bucket ids (candidate scoring, subset slicing in ReqEC-FP)
        quantize exactly once instead of encode-decode-re-encode. The
        ids are ``uint8`` (``uint16`` for ``B = 16``).
        """
        data = np.asarray(matrix, dtype=np.float32)
        id_dtype = np.uint8 if self.bits <= 8 else np.uint16
        if data.size == 0:
            # An empty matrix still carries its domain on the wire: the
            # all-predicted ReqEC selector message ships zero rows but
            # the requester may rely on (lo, hi) being the true bounds.
            domain_lo = 0.0 if lo is None else float(lo)
            domain_hi = 0.0 if hi is None else float(hi)
            if domain_hi < domain_lo:
                raise ValueError(
                    f"invalid domain: [{domain_lo}, {domain_hi}]"
                )
            reps = self.representatives(domain_lo, domain_hi)
            return np.zeros(0, dtype=id_dtype), reps, domain_lo, domain_hi
        domain_lo = float(data.min()) if lo is None else float(lo)
        domain_hi = float(data.max()) if hi is None else float(hi)
        if domain_hi < domain_lo:
            raise ValueError(f"invalid domain: [{domain_lo}, {domain_hi}]")

        buckets = self.num_buckets
        span = domain_hi - domain_lo
        if span <= 0.0:
            ids = np.zeros(data.size, dtype=id_dtype)
        else:
            # float32 throughout, one scratch array: truncating a float
            # clamped to [0, 2^B - 1] gives the id that clamping the
            # truncated integer gave, for every value an int64 can hold.
            scaled = np.subtract(data.ravel(), domain_lo)
            scaled /= span / buckets
            wild = None
            if not scaled.max() < _INT64_EDGE:  # NaN, or past int64
                wild = ~(scaled < _INT64_EDGE)
                wild_ids = np.clip(
                    scaled[wild].astype(np.int64), 0, buckets - 1
                )
                scaled[wild] = 0.0
            np.clip(scaled, 0, buckets - 1, out=scaled)
            ids = scaled.astype(id_dtype)
            if wild is not None:
                ids[wild] = wild_ids
        reps = self.representatives(domain_lo, domain_hi)
        return ids, reps, domain_lo, domain_hi

    def encode(
        self,
        matrix: np.ndarray,
        lo: float | None = None,
        hi: float | None = None,
    ) -> QuantizedMatrix:
        """Quantize ``matrix`` into bucket ids plus representatives.

        Args:
            matrix: Any-shape float array.
            lo / hi: Optional explicit domain; defaults to the data range.
                A degenerate domain (``lo == hi``) still round-trips: all
                elements land in bucket 0 whose representative is ``lo``.
                Explicit bounds are honored even for an empty matrix.
        """
        data = np.asarray(matrix, dtype=np.float32)
        ids, reps, domain_lo, domain_hi = self.encode_ids(data, lo, hi)
        return QuantizedMatrix(
            shape=data.shape,
            bits=self.bits,
            packed=pack_bits(ids, self.bits),
            lo=domain_lo,
            hi=domain_hi,
            bucket_values=reps,
            table_mode=self.table_mode,
        )

    def from_ids(
        self,
        ids: np.ndarray,
        shape: tuple[int, ...],
        reps: np.ndarray,
        lo: float,
        hi: float,
    ) -> QuantizedMatrix:
        """Pack pre-computed bucket ids into a wire-ready matrix.

        ``ids`` must come from :meth:`encode_ids` with the same domain —
        slicing a subset of those ids is wire-identical to re-encoding
        the corresponding value subset with explicit ``(lo, hi)``.
        """
        return QuantizedMatrix(
            shape=shape,
            bits=self.bits,
            packed=pack_bits(ids, self.bits),
            lo=lo,
            hi=hi,
            bucket_values=reps,
            table_mode=self.table_mode,
        )

    def quantize(self, matrix: np.ndarray, **kwargs) -> np.ndarray:
        """Encode then immediately decode (the error operator ``C_bits``)."""
        return self.encode(matrix, **kwargs).decode()

    def max_error(self, lo: float, hi: float) -> float:
        """Worst-case absolute error for a value inside ``[lo, hi]``.

        With midpoint representatives this is half the bucket width.
        """
        return (hi - lo) / (2 * self.num_buckets)
