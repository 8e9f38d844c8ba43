"""ReqEC-FP: requesting-end error compensation for the forward pass
(paper section IV-B, Algorithms 3 and 4).

Every ``T_tr`` iterations (a *trend group*) the responding worker ships
the exact embedding rows together with the per-coordinate changing-rate
matrix ``M_cr = (H_now - H_last) / T_tr``. In between, both ends can form
three approximations of the current rows:

* ``compressed`` — bucket-quantized rows (id 0),
* ``predicted`` — ``H_last + M_cr * (t mod T_tr + 1)`` (id 1), computable
  on the requesting end with **no payload at all**,
* ``average`` — the mean of the two (id 2).

The responder evaluates the L1 error of each candidate against the truth
it holds, selects per vertex (or per element / per matrix) the best one,
and ships only the 2-bit selector plus the quantized rows the requester
cannot predict. The proportion of predicted selections drives the
adaptive :class:`~repro.core.bit_tuner.BitTuner`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.quantization import BucketQuantizer
from repro.core.bit_tuner import BitTuner
from repro.core.messages import ChannelKey, ChannelMessage, ReceiveResult
from repro.obs.tracing import monotonic_now

__all__ = ["TrendState", "ReqECPolicy", "SELECT_COMPRESSED",
           "SELECT_PREDICTED", "SELECT_AVERAGE"]

SELECT_COMPRESSED = 0
SELECT_PREDICTED = 1
SELECT_AVERAGE = 2

_HEADER_BYTES = 24  # frame header + shape word (see cluster.serialize)


@dataclass
class TrendState:
    """Last exact snapshot and changing rate for one channel."""

    h_last: np.ndarray
    m_cr: np.ndarray
    boundary_t: int


class ReqECPolicy:
    """Forward-pass exchange with requesting-end compensation.

    One instance serves all channels of a training run; per-channel trend
    state is kept for both ends (in the real system they are separate
    processes whose states stay in sync through the boundary messages).
    """

    def __init__(
        self,
        tuner: BitTuner,
        trend_period: int = 10,
        granularity: str = "vertex",
        table_mode: str = "table",
    ):
        if granularity not in ("vertex", "matrix", "element"):
            raise ValueError(f"unknown granularity {granularity!r}")
        self.tuner = tuner
        self.trend_period = trend_period
        self.granularity = granularity
        self.table_mode = table_mode
        # Optional CompressionHealthMonitor; the trainer attaches it when
        # telemetry is enabled so every selector outcome is sampled.
        self.health = None
        self._responder_trend: dict[ChannelKey, TrendState] = {}
        self._requester_trend: dict[ChannelKey, TrendState] = {}
        self._quantizers: dict[int, BucketQuantizer] = {}

    @property
    def name(self) -> str:
        return f"reqec(T={self.trend_period},{self.granularity})"

    def _quantizer(self, bits: int) -> BucketQuantizer:
        if bits not in self._quantizers:
            self._quantizers[bits] = BucketQuantizer(bits, self.table_mode)
        return self._quantizers[bits]

    def _is_boundary(self, t: int) -> bool:
        return (t + 1) % self.trend_period == 0

    # ------------------------------------------------------------------
    # Responding end (Algorithm 4)
    # ------------------------------------------------------------------
    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ChannelMessage:
        if rows_idx is not None:
            raise NotImplementedError(
                "ReqEC-FP keeps dense per-channel trend state; sampled "
                "training uses the compression or ResEC policies instead"
            )
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        state = self._responder_trend.get(key)

        if self._is_boundary(t):
            if state is not None and state.h_last.shape == rows.shape:
                m_cr = (rows - state.h_last) / self.trend_period
            else:
                m_cr = np.zeros_like(rows)
            self._responder_trend[key] = TrendState(
                h_last=rows.copy(), m_cr=m_cr, boundary_t=t
            )
            return ChannelMessage(
                payload=("exact", rows.copy(), m_cr.copy()),
                nbytes=_HEADER_BYTES + 2 * rows.nbytes,
            )

        bits = self.tuner.bits(key.pair)
        quantizer = self._quantizer(bits)
        start = monotonic_now()

        if state is None:
            # No trend snapshot yet (first trend group): compressed only.
            quantized = quantizer.encode(rows)
            elapsed = monotonic_now() - start
            if self.health is not None:
                self.health.record_selection(
                    key.pair, (rows.shape[0], 0, 0), bits, t
                )
            return ChannelMessage(
                payload=("cps_only", quantized),
                nbytes=quantized.payload_bytes(),
                codec_seconds=elapsed,
                meta={"proportion": 0.0, "bits": bits},
            )

        steps = t % self.trend_period + 1
        h_pdt = state.h_last + state.m_cr * steps
        # Quantize exactly once: the bucket ids score the compressed
        # candidate AND — sliced at the non-predicted rows — form the
        # subset payload, since ids depend only on (value, lo, hi, bits).
        ids, reps, lo, hi = quantizer.encode_ids(rows)
        h_cps = np.take(reps, ids).reshape(rows.shape)

        selection, proportion = self._select(rows, h_cps, h_pdt)
        payload, nbytes = self._build_compressed_payload(
            rows, selection, quantizer, ids, reps, lo, hi
        )
        elapsed = monotonic_now() - start
        if self.health is not None:
            counts = np.bincount(selection.ravel(), minlength=3)
            self.health.record_selection(key.pair, counts, bits, t)
        return ChannelMessage(
            payload=("cps", selection, payload, lo, hi, bits),
            nbytes=nbytes,
            codec_seconds=elapsed,
            meta={"proportion": proportion, "bits": bits},
        )

    def _select(
        self,
        truth: np.ndarray,
        h_cps: np.ndarray,
        h_pdt: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """Pick the best candidate at the configured granularity.

        The L1 errors of the three candidates (indexed by their selector
        ids) fill one ``(3, n, d)`` scratch array, so every error sum
        runs over the same contiguous floats in the same order as a sum
        over a standalone ``(n, d)`` matrix.

        Returns the selection array (shape depends on granularity) and
        the proportion of predicted selections.
        """
        err = np.empty((3,) + truth.shape, dtype=np.float32)
        cps, pdt, avg = (
            err[SELECT_COMPRESSED], err[SELECT_PREDICTED], err[SELECT_AVERAGE]
        )
        # Each slab takes its abs() while it is still in cache.
        np.abs(np.subtract(h_cps, truth, out=cps), out=cps)
        np.abs(np.subtract(h_pdt, truth, out=pdt), out=pdt)
        np.add(h_pdt, h_cps, out=avg)
        avg *= 0.5
        avg -= truth
        np.abs(avg, out=avg)
        if self.granularity == "vertex":
            selection = err.sum(axis=2).argmin(axis=0).astype(np.uint8)
        elif self.granularity == "matrix":
            s = err.reshape(3, -1).sum(axis=1)
            selection = np.full(
                truth.shape[0], int(s.argmin()), dtype=np.uint8
            )
        else:  # element
            selection = err.argmin(axis=0).astype(np.uint8)
        proportion = float((selection == SELECT_PREDICTED).mean())
        return selection, proportion

    def _build_compressed_payload(
        self,
        rows: np.ndarray,
        selection: np.ndarray,
        quantizer: BucketQuantizer,
        ids: np.ndarray,
        reps: np.ndarray,
        lo: float,
        hi: float,
    ):
        """Ship only what the requester cannot predict; size the wire.

        Vertex/matrix granularity ships whole rows for non-predicted
        vertices; element granularity ships individual elements. The
        already-computed bucket ids are sliced and re-packed — quantizing
        a value subset with the full-matrix (lo, hi) yields exactly these
        ids, so no second quantization pass is needed.
        """
        mask = selection != SELECT_PREDICTED
        if self.granularity == "element":
            sub_ids = np.compress(mask.ravel(), ids)
            sub_shape = sub_ids.shape
            selector_bits = 2 * selection.size
        else:
            sub = np.compress(mask, ids.reshape(rows.shape), axis=0)
            sub_ids = sub.ravel()
            sub_shape = sub.shape
            selector_bits = 2 * selection.shape[0]
        quantized = quantizer.from_ids(sub_ids, sub_shape, reps, lo, hi)
        selector_bytes = -(-selector_bits // 8)
        # Frame + shape + (proportion, selector length) + selector bits
        # + the nested quantized frame — see cluster.serialize.
        nbytes = 16 + 8 + 8 + selector_bytes + quantized.payload_bytes()
        return quantized, nbytes

    # ------------------------------------------------------------------
    # Requesting end (Algorithm 3)
    # ------------------------------------------------------------------
    def receive(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ReceiveResult:
        kind = message.payload[0]
        if kind == "exact":
            _, rows, m_cr = message.payload
            self._requester_trend[key] = TrendState(
                h_last=rows.copy(), m_cr=m_cr.copy(), boundary_t=t
            )
            return ReceiveResult(rows=rows.copy())

        if kind == "cps_only":
            start = monotonic_now()
            rows = message.payload[1].decode()
            return ReceiveResult(
                rows=rows,
                codec_seconds=monotonic_now() - start,
                meta=dict(message.meta),
            )

        _, selection, quantized, lo, hi, bits = message.payload
        state = self._requester_trend.get(key)
        if state is None:
            raise RuntimeError(
                f"channel {key} received a selector message before any "
                "exact trend snapshot"
            )
        start = monotonic_now()
        steps = t % self.trend_period + 1
        h_pdt = state.h_last + state.m_cr * steps
        rows = self._reconstruct(selection, quantized, h_pdt)
        return ReceiveResult(
            rows=rows,
            codec_seconds=monotonic_now() - start,
            meta=dict(message.meta),
        )

    def _reconstruct(
        self, selection: np.ndarray, quantized, h_pdt: np.ndarray
    ) -> np.ndarray:
        """Merge predicted rows with the shipped quantized payload.

        ``h_pdt`` is the caller's fresh prediction and becomes the
        output; the freshly decoded payload is merged in place.
        """
        out = np.asarray(h_pdt, dtype=np.float32)
        mask = selection != SELECT_PREDICTED
        if not mask.any():
            return out
        merged = quantized.decode()
        avg = selection[mask] == SELECT_AVERAGE
        if avg.any():
            merged[avg] = 0.5 * (merged[avg] + h_pdt[mask][avg])
        out[mask] = merged
        return out

    # ------------------------------------------------------------------
    # Fault tolerance (driven by the NAC)
    # ------------------------------------------------------------------
    def fallback_rows(self, key: ChannelKey, t: int) -> np.ndarray | None:
        """Requester-end stale-halo approximation of the current rows.

        When a message is undeliverable, the requester can still form
        the *predicted* candidate from its last trend snapshot with no
        payload at all — the same machinery Algorithm 3 uses between
        boundaries, extrapolated from however old the snapshot is.
        """
        state = self._requester_trend.get(key)
        if state is None:
            return None
        steps = t - state.boundary_t
        return (state.h_last + state.m_cr * steps).astype(np.float32)

    def on_delivery_failure(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        rows_idx: np.ndarray | None = None,
    ) -> bool:
        """Keep both ends consistent after a lost message.

        A lost boundary snapshot is the dangerous case: the responder
        would start shipping selector messages the requester cannot
        reconstruct. Rolling the responder's trend state back makes the
        channel fall back to compressed-only messages until the next
        boundary resynchronizes both ends.
        """
        del rows_idx
        if message.payload[0] == "exact":
            self._responder_trend.pop(key, None)
        return False

    def invalidate_worker(self, worker: int) -> None:
        """Drop trend state touching ``worker`` (crash recovery).

        Channels the crashed worker responds on *or* requests from must
        restart their trend group: the rebuilt process holds neither the
        snapshot nor the changing rate, and the surviving end must not
        reconstruct against state the other side no longer has.
        """
        for table in (self._responder_trend, self._requester_trend):
            stale = [
                key for key in table
                if worker in (key.responder, key.requester)
            ]
            for key in stale:
                del table[key]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all per-channel state (between independent runs)."""
        self._responder_trend.clear()
        self._requester_trend.clear()
