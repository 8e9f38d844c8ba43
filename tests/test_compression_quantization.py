"""Unit + property tests for bucket quantization (the paper's C_bits)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bench.reference import (
    decode_reference,
    encode_ids_reference,
    pack_bits_reference,
)
from repro.compression.quantization import (
    SUPPORTED_BITS,
    BucketQuantizer,
    QuantizedMatrix,
    pack_bits,
    unpack_bits,
)


class TestPackBits:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 7, 8, 11, 16])
    def test_roundtrip(self, bits):
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 1 << bits, size=100, dtype=np.uint32)
        packed = pack_bits(values, bits)
        recovered = unpack_bits(packed, bits, 100)
        np.testing.assert_array_equal(recovered, values)

    def test_packed_size(self):
        values = np.arange(16, dtype=np.uint32) % 4
        packed = pack_bits(values, 2)
        assert packed.size == 4  # 16 values * 2 bits = 32 bits = 4 bytes

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            pack_bits(np.array([4], dtype=np.uint32), 2)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 7])
    def test_narrow_id_too_large_rejected(self, bits):
        """The range check sees uint8 ids before any narrowing."""
        with pytest.raises(ValueError, match="fit"):
            pack_bits(np.array([0, 1 << bits, 0], dtype=np.uint8), bits)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([0], dtype=np.uint32), 0)
        with pytest.raises(ValueError):
            unpack_bits(np.zeros(1, dtype=np.uint8), 17, 1)

    def test_empty(self):
        packed = pack_bits(np.array([], dtype=np.uint32), 4)
        assert unpack_bits(packed, 4, 0).size == 0

    @given(
        values=st.lists(st.integers(0, 255), min_size=0, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property_8bit(self, values):
        arr = np.array(values, dtype=np.uint32)
        np.testing.assert_array_equal(
            unpack_bits(pack_bits(arr, 8), 8, arr.size), arr
        )


class TestBucketQuantizer:
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_error_bounded_by_half_bucket(self, bits):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 5, size=(40, 16)).astype(np.float32)
        q = BucketQuantizer(bits)
        decoded = q.quantize(x)
        bound = q.max_error(float(x.min()), float(x.max())) + 1e-5
        assert np.abs(decoded - x).max() <= bound

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 8)).astype(np.float32)
        errors = [
            np.abs(BucketQuantizer(b).quantize(x) - x).mean()
            for b in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_constant_matrix_exact(self):
        x = np.full((3, 3), 0.7, dtype=np.float32)
        decoded = BucketQuantizer(2).quantize(x)
        np.testing.assert_allclose(decoded, 0.7, atol=1e-6)

    def test_explicit_domain(self):
        x = np.array([[0.5]], dtype=np.float32)
        q = BucketQuantizer(1)
        encoded = q.encode(x, lo=0.0, hi=1.0)
        assert encoded.lo == 0.0 and encoded.hi == 1.0
        # 0.5 lands in bucket 1 of [0, 0.5)[0.5, 1); midpoint 0.75.
        assert encoded.decode()[0, 0] == pytest.approx(0.75)

    def test_same_domain_same_ids_for_subsets(self):
        """Re-encoding a row subset with the full-matrix domain must give
        the same decoded values (the ReqEC selector depends on this)."""
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(10, 4)).astype(np.float32)
        q = BucketQuantizer(4)
        full = q.encode(x)
        subset = q.encode(x[3:6], lo=full.lo, hi=full.hi)
        np.testing.assert_array_equal(full.decode()[3:6], subset.decode())

    def test_empty_matrix(self):
        q = BucketQuantizer(4)
        encoded = q.encode(np.zeros((0, 8), dtype=np.float32))
        assert encoded.decode().shape == (0, 8)

    def test_unsupported_bits_rejected(self):
        with pytest.raises(ValueError):
            BucketQuantizer(3)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            BucketQuantizer(2).encode(np.ones((2, 2)), lo=1.0, hi=0.0)

    def test_payload_smaller_than_raw(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 64)).astype(np.float32)
        for bits in (1, 2, 4, 8):
            encoded = BucketQuantizer(bits).encode(x)
            assert encoded.payload_bytes() < x.nbytes

    def test_bounds_mode_smaller_than_table_mode(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 32)).astype(np.float32)
        table = BucketQuantizer(8, "table").encode(x)
        bounds = BucketQuantizer(8, "bounds").encode(x)
        assert bounds.payload_bytes() < table.payload_bytes()

    @given(
        x=arrays(
            np.float32,
            st.tuples(st.integers(1, 20), st.integers(1, 8)),
            elements=st.floats(-100, 100, width=32),
        ),
        bits=st.sampled_from(SUPPORTED_BITS),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_error_bound(self, x, bits):
        q = BucketQuantizer(bits)
        decoded = q.quantize(x)
        span = float(x.max() - x.min())
        bound = span / (2 * (1 << bits)) + 1e-4 * max(1.0, span)
        assert np.abs(decoded - x).max() <= bound

    @given(
        x=arrays(
            np.float32,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.floats(-10, 10, width=32),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_decode_within_domain(self, x):
        q = BucketQuantizer(4)
        decoded = q.quantize(x)
        assert decoded.min() >= x.min() - 1e-4
        assert decoded.max() <= x.max() + 1e-4

    def test_quantization_idempotent(self):
        """Quantizing an already-quantized matrix is a fixed point when
        the domain is unchanged (values sit at bucket midpoints)."""
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(20, 5)).astype(np.float32)
        q = BucketQuantizer(4)
        once = q.quantize(x, lo=0.0, hi=1.0)
        twice = q.quantize(once, lo=0.0, hi=1.0)
        np.testing.assert_allclose(once, twice, atol=1e-6)


class TestKernelEquivalence:
    """The arithmetic kernels must be byte-identical to the original
    bit-matrix implementation (kept in repro.bench.reference) — the wire
    layout is a compatibility contract, not an implementation detail."""

    @pytest.mark.parametrize("bits", list(range(1, 17)))
    def test_pack_byte_identical_to_reference(self, bits):
        rng = np.random.default_rng(bits)
        # Every id dtype the codec produces packs to the same bytes as
        # the uint32 ids the reference takes.
        dtypes = [np.uint16, np.uint32, np.int64]
        if bits <= 8:
            dtypes.insert(0, np.uint8)
        for size in (0, 1, 3, 7, 8, 9, 15, 16, 17, 100, 1001):
            values = rng.integers(0, 1 << bits, size=size, dtype=np.uint32)
            expected = pack_bits_reference(values, bits).tobytes()
            for dtype in dtypes:
                assert pack_bits(values.astype(dtype), bits).tobytes() == (
                    expected
                ), f"bits={bits} size={size} dtype={np.dtype(dtype)}"

    @given(
        x=arrays(
            np.float32,
            st.tuples(st.integers(0, 20), st.integers(1, 9)),
            elements=st.floats(width=32),
        ),
        bits=st.sampled_from(SUPPORTED_BITS),
        table_mode=st.sampled_from(["table", "bounds"]),
        domain=st.none() | st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=2, max_size=2,
        ).map(sorted),
    )
    @example(  # constant matrix: a degenerate domain, every id is 0
        x=np.full((4, 3), 0.7, np.float32), bits=2, table_mode="table",
        domain=None,
    )
    @example(  # empty matrix with explicit bounds
        x=np.zeros((0, 5), np.float32), bits=4, table_mode="bounds",
        domain=[-1.5, 3.0],
    )
    @example(  # values far outside a tiny explicit domain
        x=np.array([[1.0, -1.0, 1e30]], np.float32), bits=8,
        table_mode="table", domain=[0.0, 1e-20],
    )
    @example(  # a span that overflows float32
        x=np.array([[-3e38, 0.0, 3e38]], np.float32), bits=16,
        table_mode="table", domain=None,
    )
    @example(  # NaN row: NaN domain, NaN table
        x=np.array([[np.nan, 1.0], [0.5, 2.0]], np.float32), bits=4,
        table_mode="table", domain=None,
    )
    @example(  # +inf: infinite span
        x=np.array([[np.inf, 1.0], [0.5, 2.0]], np.float32), bits=1,
        table_mode="bounds", domain=None,
    )
    @example(  # -inf and +inf together
        x=np.array([[np.inf, -np.inf], [0.5, 2.0]], np.float32), bits=8,
        table_mode="table", domain=None,
    )
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_codec_identical_to_reference(self, x, bits, table_mode, domain):
        """ids, packed bytes and decoded floats equal the original
        formulas bit for bit — NaN and ±inf included, which must keep
        reaching the loss (the convergence watchdog reads it there)."""
        lo, hi = domain if domain is not None else (None, None)
        q = BucketQuantizer(bits, table_mode)
        ids, reps, domain_lo, domain_hi = q.encode_ids(x, lo, hi)
        ref_ids, ref_reps, ref_lo, ref_hi = encode_ids_reference(q, x, lo, hi)
        assert ids.dtype == (np.uint8 if bits <= 8 else np.uint16)
        np.testing.assert_array_equal(ids, ref_ids)
        assert reps.tobytes() == ref_reps.tobytes()
        assert np.array([domain_lo, domain_hi]).tobytes() == (
            np.array([ref_lo, ref_hi]).tobytes()
        )

        encoded = q.encode(x, lo=lo, hi=hi)
        assert encoded.packed.tobytes() == (
            pack_bits_reference(ref_ids, bits).tobytes()
        )
        decoded = encoded.decode()
        assert decoded.dtype == np.float32
        assert decoded.shape == x.shape
        assert decoded.tobytes() == decode_reference(encoded).tobytes()

    @pytest.mark.parametrize("bits", list(range(1, 17)))
    def test_unpack_inverts_reference_pack(self, bits):
        rng = np.random.default_rng(100 + bits)
        for size in (1, 8, 9, 63, 100):
            values = rng.integers(0, 1 << bits, size=size, dtype=np.uint32)
            packed = pack_bits_reference(values, bits)
            np.testing.assert_array_equal(
                unpack_bits(packed, bits, size), values
            )


class TestStrictBufferLength:
    """``unpack_bits`` and ``QuantizedMatrix.decode`` (whose byte-table
    path never calls it) reject mis-sized packed buffers alike."""

    @staticmethod
    def _matrix(packed, bits):
        table = np.arange(1 << bits, dtype=np.float32)
        return QuantizedMatrix(
            shape=(2, 5), bits=bits, packed=packed, lo=0.0, hi=1.0,
            bucket_values=table,
        )

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8, 11, 16])
    def test_oversized_buffer_rejected(self, bits):
        values = np.arange(10, dtype=np.uint32) % (1 << bits)
        packed = pack_bits(values, bits)
        padded = np.concatenate([packed, np.zeros(3, dtype=np.uint8)])
        with pytest.raises(ValueError, match="exactly") as unpacked:
            unpack_bits(padded, bits, 10)
        with pytest.raises(ValueError, match="exactly") as decoded:
            self._matrix(padded, bits).decode()
        assert str(decoded.value) == str(unpacked.value)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8, 11, 16])
    def test_short_buffer_rejected(self, bits):
        values = np.arange(10, dtype=np.uint32) % (1 << bits)
        packed = pack_bits(values, bits)
        with pytest.raises(ValueError, match="exactly") as unpacked:
            unpack_bits(packed[:-1], bits, 10)
        with pytest.raises(ValueError, match="exactly") as decoded:
            self._matrix(packed[:-1], bits).decode()
        assert str(decoded.value) == str(unpacked.value)

    @given(
        buffer=st.binary(max_size=64),
        bits=st.integers(-2, 20),
        count=st.integers(-4, 600),
    )
    @settings(max_examples=200, deadline=None)
    def test_unpack_fuzz_value_or_value_error(self, buffer, bits, count):
        """Arbitrary bytes: a value of the promised length, or a
        ValueError — never an IndexError or any other exception."""
        try:
            ids = unpack_bits(np.frombuffer(buffer, np.uint8), bits, count)
        except ValueError:
            return
        assert ids.shape == (count,)
        assert int(ids.max(initial=0)) < (1 << bits)


class TestEmptyMatrixBounds:
    def test_explicit_bounds_honored_for_empty_input(self):
        """Regression: an empty matrix used to discard the caller's
        (lo, hi) and encode a [0, 0] domain — the all-predicted ReqEC
        selector payload then shipped wrong bounds."""
        q = BucketQuantizer(4)
        encoded = q.encode(np.zeros((0, 8), dtype=np.float32), lo=-1.5, hi=3.0)
        assert encoded.lo == -1.5
        assert encoded.hi == 3.0
        np.testing.assert_array_equal(
            encoded.bucket_values, q.representatives(-1.5, 3.0)
        )

    def test_empty_input_default_bounds(self):
        q = BucketQuantizer(4)
        encoded = q.encode(np.zeros((0, 8), dtype=np.float32))
        assert encoded.lo == 0.0 and encoded.hi == 0.0

    def test_empty_input_invalid_bounds_rejected(self):
        q = BucketQuantizer(4)
        with pytest.raises(ValueError, match="invalid domain"):
            q.encode(np.zeros((0, 4), dtype=np.float32), lo=2.0, hi=-2.0)


class TestEncodeIds:
    def test_encode_ids_matches_encode(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, size=(23, 7)).astype(np.float32)
        q = BucketQuantizer(4)
        ids, reps, lo, hi = q.encode_ids(x)
        via_encode = q.encode(x)
        assert (lo, hi) == (via_encode.lo, via_encode.hi)
        np.testing.assert_array_equal(reps, via_encode.bucket_values)
        assert pack_bits(ids, 4).tobytes() == via_encode.packed.tobytes()

    def test_sliced_ids_equal_subset_reencode(self):
        """Slicing full-matrix ids is wire-identical to re-encoding the
        value subset with the full matrix's explicit domain — the
        invariant the single-quantize ReqEC respond path relies on."""
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 4, size=(30, 5)).astype(np.float32)
        q = BucketQuantizer(8)
        ids, reps, lo, hi = q.encode_ids(x)
        mask = rng.random(30) < 0.5
        sub = x[mask]
        sliced = q.from_ids(
            ids.reshape(x.shape)[mask].ravel(), sub.shape, reps, lo, hi
        )
        direct = q.encode(sub, lo=lo, hi=hi)
        assert sliced.packed.tobytes() == direct.packed.tobytes()
        np.testing.assert_array_equal(
            sliced.bucket_values, direct.bucket_values
        )
