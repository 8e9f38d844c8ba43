"""Unit tests for the binary wire format — and validation that the
policies' *computed* message sizes agree with real encoded bytes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.serialize import (
    HEADER_BYTES,
    decode_exact,
    decode_quantized,
    decode_raw,
    decode_selector,
    encode_exact,
    encode_quantized,
    encode_raw,
    encode_selector,
)
from repro.compression.quantization import BucketQuantizer, pack_bits


@pytest.fixture
def matrix():
    rng = np.random.default_rng(0)
    return rng.standard_normal((17, 9)).astype(np.float32)


class TestRawFrames:
    def test_roundtrip(self, matrix):
        np.testing.assert_array_equal(decode_raw(encode_raw(matrix)), matrix)

    def test_vector_roundtrip(self):
        v = np.arange(5, dtype=np.float32)
        np.testing.assert_array_equal(decode_raw(encode_raw(v)), v)

    def test_frame_size_matches_policy_accounting(self, matrix):
        from repro.core.messages import ChannelKey, RawPolicy

        frame = encode_raw(matrix)
        message = RawPolicy().respond(
            ChannelKey(1, 0, 1), matrix, t=0
        )
        assert len(frame) == message.nbytes

    def test_bad_magic_rejected(self, matrix):
        frame = bytearray(encode_raw(matrix))
        frame[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decode_raw(bytes(frame))

    def test_truncated_frame_rejected(self, matrix):
        frame = encode_raw(matrix)
        with pytest.raises(ValueError, match="truncated"):
            decode_raw(frame[:-4])

    def test_wrong_kind_rejected(self, matrix):
        frame = encode_raw(matrix)
        with pytest.raises(ValueError, match="kind"):
            decode_quantized(frame)


class TestQuantFrames:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    @pytest.mark.parametrize("mode", ["table", "bounds"])
    def test_roundtrip(self, matrix, bits, mode):
        quantized = BucketQuantizer(bits, mode).encode(matrix)
        decoded = decode_quantized(encode_quantized(quantized))
        np.testing.assert_allclose(
            decoded.decode(), quantized.decode(), atol=1e-6
        )
        assert decoded.bits == bits
        assert decoded.table_mode == mode

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    @pytest.mark.parametrize("mode", ["table", "bounds"])
    def test_computed_size_close_to_real(self, matrix, bits, mode):
        """payload_bytes() is what the traffic meter charges; it must
        track the real wire size to within a few header bytes."""
        quantized = BucketQuantizer(bits, mode).encode(matrix)
        real = len(encode_quantized(quantized))
        computed = quantized.payload_bytes()
        assert abs(real - computed) <= 16

    def test_bounds_mode_rebuilds_midpoints(self, matrix):
        quantized = BucketQuantizer(4, "bounds").encode(matrix)
        decoded = decode_quantized(encode_quantized(quantized))
        np.testing.assert_allclose(
            decoded.bucket_values, quantized.bucket_values, atol=1e-5
        )


class TestExactFrames:
    def test_roundtrip(self, matrix):
        rate = matrix * 0.1
        rows_out, rate_out = decode_exact(encode_exact(matrix, rate))
        np.testing.assert_array_equal(rows_out, matrix)
        np.testing.assert_array_equal(rate_out, rate)

    def test_size_matches_reqec_accounting(self, matrix):
        frame = encode_exact(matrix, matrix * 0.1)
        assert len(frame) == HEADER_BYTES + 8 + 2 * matrix.nbytes
        # The ReqEC policy charges header + 2x raw (shape words inside
        # its 16-byte header allowance).
        from repro.core.bit_tuner import BitTuner
        from repro.core.messages import ChannelKey
        from repro.core.reqec_fp import ReqECPolicy

        policy = ReqECPolicy(BitTuner(initial_bits=2, enabled=False),
                             trend_period=2)
        message = policy.respond(ChannelKey(1, 0, 1), matrix, t=1)
        assert abs(message.nbytes - len(frame)) <= 16

    def test_shape_mismatch_rejected(self, matrix):
        with pytest.raises(ValueError):
            encode_exact(matrix, matrix[:-1])


class TestSelectorFrames:
    def test_roundtrip(self, matrix):
        rng = np.random.default_rng(1)
        selection = rng.integers(0, 3, size=matrix.shape[0]).astype(np.uint8)
        quantized = BucketQuantizer(4).encode(matrix[selection != 1])
        frame = encode_selector(selection, quantized, proportion=0.42)
        sel_out, quant_out, proportion = decode_selector(frame)
        np.testing.assert_array_equal(sel_out, selection)
        np.testing.assert_allclose(
            quant_out.decode(), quantized.decode(), atol=1e-6
        )
        assert proportion == pytest.approx(0.42)

    def test_size_matches_reqec_accounting(self, matrix):
        """The selector-message size charged by ReqEC-FP tracks the real
        frame length."""
        from repro.core.bit_tuner import BitTuner
        from repro.core.messages import ChannelKey
        from repro.core.reqec_fp import ReqECPolicy

        policy = ReqECPolicy(BitTuner(initial_bits=4, enabled=False),
                             trend_period=4)
        key = ChannelKey(1, 0, 1)
        policy.respond(key, matrix, t=3)  # boundary primes the trend
        message = policy.respond(key, matrix + 0.05, t=4)
        assert message.payload[0] == "cps"
        _, selection, quantized, lo, hi, bits = message.payload
        frame = encode_selector(
            selection, quantized, message.meta["proportion"]
        )
        assert abs(len(frame) - message.nbytes) <= 32


class TestPropertyRoundTrips:
    @given(
        data=arrays(
            np.float32,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.floats(-50, 50, width=32),
        ),
        bits=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_quant_frame_roundtrip_property(self, data, bits):
        quantized = BucketQuantizer(bits).encode(data)
        decoded = decode_quantized(encode_quantized(quantized))
        np.testing.assert_allclose(
            decoded.decode(), quantized.decode(), atol=1e-6
        )


class TestCorruptFrames:
    """Corrupted frames (the fault injector flips wire bytes) must fail
    as wire-format ValueErrors, never as raw numpy buffer errors."""

    def _quant_frame(self, matrix, bits=4, mode="bounds"):
        return encode_quantized(BucketQuantizer(bits, mode).encode(matrix))

    def test_flipped_bits_byte_invalid_width(self, matrix):
        frame = bytearray(self._quant_frame(matrix))
        frame[24] = 0  # bits field: header (16) + shape (8)
        with pytest.raises(ValueError, match="invalid bit width"):
            decode_quantized(bytes(frame))
        frame[24] = 200
        with pytest.raises(ValueError, match="invalid bit width"):
            decode_quantized(bytes(frame))

    def test_flipped_bits_byte_wrong_payload_size(self, matrix):
        # 7 is a legal width, but the packed ids were sized for 4 bits.
        frame = bytearray(self._quant_frame(matrix, bits=4))
        frame[24] = 7
        with pytest.raises(ValueError, match="needs exactly"):
            decode_quantized(bytes(frame))

    def test_truncated_bucket_table(self, matrix):
        # Inflating the bits field makes the promised 2^B table far
        # larger than the bytes that follow.
        frame = bytearray(self._quant_frame(matrix, bits=4, mode="table"))
        frame[24] = 16
        with pytest.raises(ValueError, match="bucket table"):
            decode_quantized(bytes(frame))

    def test_short_packed_ids(self, matrix):
        import struct

        frame = self._quant_frame(matrix)
        payload = frame[16:-3]  # drop trailing packed bytes ...
        header = struct.pack("<HHIQ", 0xEC6A, 2, 0, len(payload))
        with pytest.raises(ValueError, match="needs exactly"):
            decode_quantized(header + payload)  # ... with a fixed header

    def test_truncated_before_metadata(self):
        import struct

        payload = struct.pack("<II", 3, 4)  # shape word only
        header = struct.pack("<HHIQ", 0xEC6A, 2, 0, len(payload))
        with pytest.raises(ValueError, match="truncated before"):
            decode_quantized(header + payload)

    def test_corrupt_selector_sel_bytes(self, matrix):
        rng = np.random.default_rng(2)
        selection = rng.integers(0, 3, size=matrix.shape[0]).astype(np.uint8)
        quantized = BucketQuantizer(4).encode(matrix[selection != 1])
        frame = bytearray(encode_selector(selection, quantized, 0.5))
        # sel_bytes field: header (16) + shape (8) + proportion (4).
        frame[28] = frame[28] + 1 & 0xFF
        with pytest.raises(ValueError, match="selector bytes"):
            decode_selector(bytes(frame))

    def test_corrupt_nested_quant_in_selector(self, matrix):
        rng = np.random.default_rng(3)
        selection = rng.integers(0, 3, size=matrix.shape[0]).astype(np.uint8)
        quantized = BucketQuantizer(4).encode(matrix[selection != 1])
        frame = bytearray(encode_selector(selection, quantized, 0.5))
        sel_bytes = (2 * selection.size + 7) // 8
        nested = 16 + 8 + 8 + sel_bytes  # nested QUANT frame's magic
        frame[nested] ^= 0xFF
        with pytest.raises(ValueError, match="bad magic"):
            decode_selector(bytes(frame))


def _decode_or_value_error(frame: bytes) -> None:
    """A QUANT frame decodes to float32 of its shape, or ValueError."""
    try:
        quantized = decode_quantized(frame)
        values = quantized.decode()
    except ValueError:
        return
    assert values.dtype == np.float32
    assert values.shape == quantized.shape


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestQuantDecoderFuzz:
    """Arbitrary bytes through ``decode_quantized(...).decode()`` yield
    a matrix or a ``ValueError`` — never an ``IndexError`` or any other
    exception, whichever decode path the bit width takes."""

    @given(frame=st.binary(max_size=96))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, frame):
        _decode_or_value_error(frame)

    @given(payload=st.binary(max_size=160), flags=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_valid_header_arbitrary_payload(self, payload, flags):
        import struct

        header = struct.pack("<HHIQ", 0xEC6A, 2, flags, len(payload))
        _decode_or_value_error(header + payload)

    @given(
        data=arrays(
            np.float32,
            st.tuples(st.integers(0, 6), st.integers(1, 7)),
            elements=st.floats(-5, 5, width=32),
        ),
        bits=st.sampled_from([1, 2, 4, 8, 16]),
        mode=st.sampled_from(["table", "bounds"]),
        edits=st.lists(
            st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_real_frames(self, data, bits, mode, edits):
        frame = bytearray(
            encode_quantized(BucketQuantizer(bits, mode).encode(data))
        )
        for position, value in edits:
            frame[position % len(frame)] = value
        _decode_or_value_error(bytes(frame))

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 8, 11, 16])
    def test_every_width_decodes_from_the_wire(self, bits):
        """The bits byte is any width in [1, 16]; irregular widths (not
        produced by BucketQuantizer) still decode, through unpack_bits."""
        import struct

        count = 13
        ids = np.arange(count, dtype=np.uint32) % (1 << bits)
        packed = pack_bits(ids, bits)
        table = np.arange(1 << bits, dtype=np.float32) * 0.5
        payload = (
            struct.pack("<II", count, 0) + struct.pack("<Bff", bits, 0.0, 1.0)
            + table.tobytes() + packed.tobytes()
        )
        frame = struct.pack("<HHIQ", 0xEC6A, 2, 1, len(payload)) + payload
        np.testing.assert_array_equal(
            decode_quantized(frame).decode(), table[ids]
        )

