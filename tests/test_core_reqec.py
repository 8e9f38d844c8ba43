"""Unit tests for ReqEC-FP: trend groups, the Selector and reconstruction."""

import numpy as np
import pytest

from repro.bench.reference import (
    decode_reference,
    encode_ids_reference,
    pack_bits_reference,
)
from repro.compression.quantization import BucketQuantizer, QuantizedMatrix
from repro.core.bit_tuner import BitTuner
from repro.core.messages import ChannelKey
from repro.core.reqec_fp import (
    SELECT_AVERAGE,
    SELECT_COMPRESSED,
    SELECT_PREDICTED,
    ReqECPolicy,
)

KEY = ChannelKey(layer=1, responder=0, requester=1)


def _policy(bits=4, period=4, granularity="vertex", adaptive=False):
    tuner = BitTuner(initial_bits=bits, enabled=adaptive)
    return ReqECPolicy(tuner, trend_period=period, granularity=granularity)


def _roundtrip(policy, rows, t):
    message = policy.respond(KEY, rows, t)
    return policy.receive(KEY, message, t), message


class TestSchedule:
    def test_boundary_iteration_exact(self):
        policy = _policy(period=4)
        rows = np.random.default_rng(0).random((6, 3)).astype(np.float32)
        result, message = _roundtrip(policy, rows, t=3)  # (3+1) % 4 == 0
        assert message.payload[0] == "exact"
        np.testing.assert_array_equal(result.rows, rows)

    def test_pre_boundary_is_compressed_only(self):
        policy = _policy(period=4)
        rows = np.random.default_rng(0).random((6, 3)).astype(np.float32)
        _, message = _roundtrip(policy, rows, t=0)
        assert message.payload[0] == "cps_only"

    def test_post_boundary_uses_selector(self):
        policy = _policy(period=4)
        rng = np.random.default_rng(0)
        rows = rng.random((6, 3)).astype(np.float32)
        _roundtrip(policy, rows, t=3)  # boundary primes the trend
        _, message = _roundtrip(policy, rows, t=4)
        assert message.payload[0] == "cps"

    def test_exact_message_carries_changing_rate(self):
        policy = _policy(period=2)
        rows0 = np.zeros((4, 2), dtype=np.float32)
        rows1 = np.ones((4, 2), dtype=np.float32) * 2.0
        _roundtrip(policy, rows0, t=1)  # first boundary
        _, message = _roundtrip(policy, rows1, t=3)  # second boundary
        m_cr = message.payload[2]
        np.testing.assert_allclose(m_cr, 1.0)  # (2 - 0) / T_tr=2


class TestSelector:
    def test_linear_trend_selects_predicted(self):
        """Embeddings moving at a constant rate are perfectly predicted,
        so the Selector should pick `predicted` and send no payload."""
        policy = _policy(period=4, bits=1)
        base = np.random.default_rng(0).random((8, 4)).astype(np.float32)
        step = np.full_like(base, 0.01)
        # Two boundaries establish the rate.
        _roundtrip(policy, base, t=3)
        _roundtrip(policy, base + 4 * step, t=7)
        result, message = _roundtrip(policy, base + 5 * step, t=8)
        selection = message.payload[1]
        assert (selection == SELECT_PREDICTED).mean() > 0.9
        assert message.meta["proportion"] > 0.9
        np.testing.assert_allclose(
            result.rows, base + 5 * step, atol=1e-3
        )

    def test_static_then_jump_selects_compressed(self):
        """After an abrupt change the prediction is stale; the quantized
        rows win."""
        policy = _policy(period=4, bits=8)
        rng = np.random.default_rng(1)
        rows = rng.random((8, 4)).astype(np.float32)
        _roundtrip(policy, rows, t=3)
        _roundtrip(policy, rows, t=7)  # rate == 0
        jumped = rows + rng.random((8, 4)).astype(np.float32) * 5.0
        _, message = _roundtrip(policy, jumped, t=8)
        selection = message.payload[1]
        assert (selection == SELECT_COMPRESSED).mean() > 0.5

    def test_reconstruction_matches_selected_candidates(self):
        policy = _policy(period=4, bits=4)
        rng = np.random.default_rng(2)
        rows = rng.random((10, 3)).astype(np.float32)
        _roundtrip(policy, rows, t=3)
        drifted = rows + rng.normal(0, 0.05, rows.shape).astype(np.float32)
        result, message = _roundtrip(policy, drifted, t=4)
        # Reconstruction error must be no worse than pure quantization
        # over the full matrix (the Selector picks the best per vertex).
        cps_err = np.abs(
            BucketQuantizer(4).quantize(drifted) - drifted
        ).sum(axis=1)
        rec_err = np.abs(result.rows - drifted).sum(axis=1)
        assert (rec_err <= cps_err + 1e-4).all()

    def test_average_candidate_reconstruction(self):
        policy = _policy(period=4, bits=2)
        rng = np.random.default_rng(3)
        rows = rng.random((30, 4)).astype(np.float32)
        _roundtrip(policy, rows, t=3)
        drifted = rows + 0.08
        result, message = _roundtrip(policy, drifted, t=4)
        selection = message.payload[1]
        if (selection == SELECT_AVERAGE).any():
            # Averaged rows must equal (predicted + compressed) / 2.
            avg_rows = np.flatnonzero(selection == SELECT_AVERAGE)
            assert np.abs(result.rows[avg_rows] - drifted[avg_rows]).max() < 0.5


class TestGranularities:
    @pytest.mark.parametrize("granularity", ["vertex", "matrix", "element"])
    def test_all_granularities_reconstruct(self, granularity):
        policy = _policy(period=3, granularity=granularity, bits=8)
        rng = np.random.default_rng(4)
        rows = rng.random((12, 5)).astype(np.float32)
        _roundtrip(policy, rows, t=2)
        drifted = rows + rng.normal(0, 0.02, rows.shape).astype(np.float32)
        result, _ = _roundtrip(policy, drifted, t=3)
        assert np.abs(result.rows - drifted).max() < 0.1

    def test_matrix_granularity_single_choice(self):
        policy = _policy(period=3, granularity="matrix")
        rng = np.random.default_rng(5)
        rows = rng.random((10, 4)).astype(np.float32)
        _roundtrip(policy, rows, t=2)
        _, message = _roundtrip(policy, rows + 0.01, t=3)
        selection = message.payload[1]
        assert len(np.unique(selection)) == 1

    def test_element_selection_shape(self):
        policy = _policy(period=3, granularity="element")
        rng = np.random.default_rng(6)
        rows = rng.random((7, 5)).astype(np.float32)
        _roundtrip(policy, rows, t=2)
        _, message = _roundtrip(policy, rows + 0.01, t=3)
        assert message.payload[1].shape == (7, 5)

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError):
            _policy(granularity="row")


def _pre_change_exchange(rows, h_pdt, bits, granularity):
    """The selector message and its reconstruction, computed with the
    original formulas: reference ids and packing, separate candidate
    error matrices, boolean-mask slicing and copy-then-merge decode.

    Returns ``(selection, nbytes, reconstructed rows)``.
    """
    quantizer = BucketQuantizer(bits)
    ids, reps, lo, hi = encode_ids_reference(quantizer, rows)
    h_cps = reps[ids].reshape(rows.shape).astype(np.float32)
    h_avg = 0.5 * (h_pdt + h_cps)
    errors = [np.abs(h - rows) for h in (h_cps, h_pdt, h_avg)]
    if granularity == "vertex":
        selection = np.stack([e.sum(axis=1) for e in errors], axis=1)
        selection = selection.argmin(axis=1).astype(np.uint8)
        selector_bits = 2 * selection.shape[0]
    elif granularity == "matrix":
        best = int(np.array([e.sum() for e in errors]).argmin())
        selection = np.full(rows.shape[0], best, dtype=np.uint8)
        selector_bits = 2 * selection.shape[0]
    else:
        selection = np.stack(errors, axis=2).argmin(axis=2).astype(np.uint8)
        selector_bits = 2 * selection.size
    mask = selection != SELECT_PREDICTED
    sub = ids.reshape(rows.shape)[mask]
    quantized = QuantizedMatrix(
        shape=sub.shape, bits=bits,
        packed=pack_bits_reference(sub.ravel(), bits), lo=lo, hi=hi,
        bucket_values=reps,
    )
    nbytes = 16 + 8 + 8 + -(-selector_bits // 8) + quantized.payload_bytes()
    out = h_pdt.astype(np.float32).copy()
    if mask.any():
        cps = decode_reference(quantized)
        avg = selection[mask] == SELECT_AVERAGE
        merged = cps.copy()
        merged[avg] = 0.5 * (cps[avg] + h_pdt[mask][avg])
        out[mask] = merged
    return selection, nbytes, out


class TestPreChangeFormulas:
    """Selector messages equal the original formulas bit for bit, at
    every granularity and at row widths ``d`` where ``d * B`` is and is
    not a whole number of bytes (so row payloads do and do not start on
    a byte boundary)."""

    @pytest.mark.parametrize("granularity", ["vertex", "matrix", "element"])
    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("dim", [3, 8, 67])
    def test_nbytes_and_rows_match(self, granularity, bits, dim):
        policy = _policy(bits=bits, period=4, granularity=granularity)
        rng = np.random.default_rng(100 * bits + dim)
        n = 24
        base = rng.standard_normal((n, dim)).astype(np.float32)
        step = np.float32(0.05) * rng.standard_normal((n, dim)).astype(
            np.float32
        )
        # Rows 0..11 follow their trend (the prediction wins); the rest
        # jump about, so compressed and averaged candidates win too.
        def rows_at(t):
            rows = base + step * np.float32(t)
            rows[n // 2:] += rng.standard_normal((n - n // 2, dim)).astype(
                np.float32
            ) * np.float32(0.3)
            return rows

        for t in (3, 7):  # two boundaries establish a changing rate
            policy.receive(KEY, policy.respond(KEY, rows_at(t), t), t)
        seen = set()
        for t in (8, 9, 10):
            rows = rows_at(t)
            state = policy._responder_trend[KEY]
            h_pdt = state.h_last + state.m_cr * (t % 4 + 1)
            selection, nbytes, expected = _pre_change_exchange(
                rows, h_pdt, bits, granularity
            )
            message = policy.respond(KEY, rows, t)
            assert message.payload[0] == "cps"
            np.testing.assert_array_equal(message.payload[1], selection)
            assert message.nbytes == nbytes
            result = policy.receive(KEY, message, t)
            assert result.rows.dtype == np.float32
            assert result.rows.tobytes() == expected.tobytes()
            seen.update(np.unique(selection).tolist())
        if granularity != "matrix":
            assert SELECT_PREDICTED in seen and len(seen) >= 2


class TestCosts:
    def test_predicted_rows_save_bytes(self):
        """A channel with perfectly predictable rows ships less than one
        with unpredictable rows."""
        rng = np.random.default_rng(7)
        base = rng.random((64, 16)).astype(np.float32)
        step = np.full_like(base, 0.01)

        predictable = _policy(period=4, bits=8)
        for t, rows in [(3, base), (7, base + 4 * step)]:
            predictable.respond(KEY, rows, t)
        good = predictable.respond(KEY, base + 5 * step, 8)

        noisy = _policy(period=4, bits=8)
        for t, rows in [(3, base), (7, base + 4 * step)]:
            noisy.respond(KEY, rows, t)
        random_rows = rng.random((64, 16)).astype(np.float32) * 3.0
        bad = noisy.respond(KEY, random_rows, 8)
        assert good.nbytes < bad.nbytes

    def test_exact_message_double_raw_size(self):
        policy = _policy(period=2)
        rows = np.zeros((10, 8), dtype=np.float32)
        message = policy.respond(KEY, rows, t=1)
        assert message.nbytes == 24 + 2 * rows.nbytes


class TestErrors:
    def test_selector_before_boundary_on_requester_raises(self):
        responder = _policy(period=4)
        rows = np.random.default_rng(8).random((4, 2)).astype(np.float32)
        responder.respond(KEY, rows, t=3)  # prime responder only
        message = responder.respond(KEY, rows, t=4)
        fresh_requester = _policy(period=4)
        with pytest.raises(RuntimeError, match="exact trend snapshot"):
            fresh_requester.receive(KEY, message, t=4)

    def test_sampled_subset_unsupported(self):
        policy = _policy()
        rows = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(NotImplementedError):
            policy.respond(KEY, rows, t=0, rows_idx=np.array([0, 1]))

    def test_reset_clears_trend(self):
        policy = _policy(period=2)
        rows = np.zeros((4, 2), dtype=np.float32)
        policy.respond(KEY, rows, t=1)
        policy.reset()
        message = policy.respond(KEY, rows, t=2)
        assert message.payload[0] == "cps_only"
