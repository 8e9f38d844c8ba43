"""The first-hop cache: layer 1's constant operands, built once per worker.

With ``cache_first_hop`` on, layer 1 aggregates over the constant
``X_cat = [X; X_halo]``, so each worker builds ``X_cat`` and
``M^1 = A^1 X_cat`` once (:class:`repro.core.worker.FirstHopCache`)
instead of every epoch. These tests pin that the SpMM is built exactly
once per worker under both executors, that every path replacing the
halo features or the layer-1 adjacency (crash refetch, elastic
adoption, online resampling) rebuilds the cache so layer 1 still
equals a from-scratch :func:`layer_forward` bit for bit, that the
cache stays off with ``cache_first_hop=False``, and that the cached
arrays are read-only.
"""

from __future__ import annotations

import collections
import os

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.gcn_math import layer_forward
from repro.core.models import bias_name, weight_name
from repro.core.sampling_trainer import SampledECGraphTrainer
from repro.core.trainer import ECGraphTrainer
from repro.core.worker import FirstHopCache
from repro.faults import FaultConfig
from repro.graph.generators import GraphSpec, generate_graph


@pytest.fixture(scope="module")
def graph():
    # Feature dim 24 > hidden 8, so transform_first=True picks the
    # transform-first ordering and transform_first=False forces
    # aggregate-first: both are exercised.
    return generate_graph(GraphSpec(
        name="first-hop", num_vertices=90, avg_degree=6.0, feature_dim=24,
        num_classes=3, homophily=0.9, feature_noise=0.8,
        train=36, val=18, test=30, seed=3,
    ))


def _trainer(graph, workers=3, **config):
    return ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=8),
        ClusterSpec(num_workers=workers), ECGraphConfig(seed=0, **config),
    )


@pytest.fixture
def build_log(monkeypatch, tmp_path):
    """Record every ``M^1`` build as the id of its adjacency.

    The log is an append-only file, so builds inside forked worker
    processes land in it too; a forked worker's inherited adjacency
    keeps the id it has in the supervisor.
    """
    path = tmp_path / "builds.log"
    path.touch()
    original = FirstHopCache.aggregated

    def aggregated(self, adjacency):
        if self.built_aggregated(adjacency) is None:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, f"{id(adjacency)}\n".encode())
            finally:
                os.close(fd)
        return original(self, adjacency)

    monkeypatch.setattr(FirstHopCache, "aggregated", aggregated)

    def builds() -> collections.Counter:
        return collections.Counter(
            int(line) for line in path.read_text().split()
        )

    return builds


@pytest.fixture
def layer_one_params(monkeypatch):
    """Capture the parameters each worker's layer-1 forward pulled."""
    seen: dict[int, dict[str, np.ndarray]] = {}

    def install(trainer):
        trainer.setup()
        backend = trainer.engine.backend
        original = backend.forward_layer

        def forward_layer(state, halo, pulled, layer, is_last):
            if layer == 1:
                seen[state.worker_id] = dict(pulled)
            return original(state, halo, pulled, layer, is_last=is_last)

        monkeypatch.setattr(backend, "forward_layer", forward_layer)
        return seen

    return install


def _assert_layer_one_from_scratch(trainer, pulled):
    """Every live worker's layer-1 cache equals a fresh concat + SpMM."""
    backend = trainer.engine.backend
    config = trainer.config
    checked = 0
    for state in trainer.engine.ctx.active_workers():
        hop = state.first_hop_cache
        assert hop is not None
        assert hop.halo_features is state.halo_features
        adjacency = backend.adjacency(state, 1)
        h_cat = np.concatenate([state.features, state.halo_features], axis=0)
        params = pulled[state.worker_id]
        expected = layer_forward(
            adjacency, h_cat, params[weight_name(0)],
            params.get(bias_name(0)), trainer.params.activation,
            is_last=False,
            transform_first=None if config.transform_first else False,
        )
        cache = state.caches[1]
        assert cache.h_cat is hop.h_cat
        np.testing.assert_array_equal(cache.h_cat, h_cat)
        np.testing.assert_array_equal(cache.aggregated, adjacency @ h_cat)
        np.testing.assert_array_equal(
            cache.pre_activation, expected.pre_activation
        )
        np.testing.assert_array_equal(cache.output, expected.output)
        assert cache.output.dtype == expected.output.dtype
        checked += 1
    assert checked


# ----------------------------------------------------------------------
# (a) built once per worker
# ----------------------------------------------------------------------
class TestBuiltOncePerWorker:
    @pytest.mark.parametrize("execution", ["sync", "multiprocess"])
    @pytest.mark.parametrize("transform_first", [True, False])
    def test_spmm_built_once_over_five_epochs(
        self, graph, build_log, execution, transform_first
    ):
        trainer = _trainer(
            graph, execution=execution, transform_first=transform_first
        )
        try:
            for t in range(5):
                trainer.run_epoch(t)
            expected = {id(state.a_local): 1 for state in trainer.workers}
        finally:
            trainer.close()
        assert build_log() == expected

    def test_evaluate_exact_reuses_the_cache(self, graph, build_log):
        trainer = _trainer(graph, transform_first=False)
        for t in range(3):
            trainer.run_epoch(t)
        hops = [state.first_hop_cache for state in trainer.workers]
        before = build_log()
        trainer.evaluate_exact()
        assert build_log() == before
        assert [state.first_hop_cache for state in trainer.workers] == hops


# ----------------------------------------------------------------------
# (b) rebuilt after every path that replaces the operands
# ----------------------------------------------------------------------
class TestRebuiltAfterReplacement:
    @pytest.mark.parametrize("transform_first", [True, False])
    def test_crash_refetch(self, graph, layer_one_params, transform_first):
        faults = FaultConfig(enabled=True, crash_schedule=((2, 1),))
        trainer = _trainer(
            graph, faults=faults, transform_first=transform_first
        )
        pulled = layer_one_params(trainer)
        for t in range(2):
            trainer.run_epoch(t)
        hops = [state.first_hop_cache for state in trainer.workers]
        halos = [state.halo_features for state in trainer.workers]
        trainer.run_epoch(2)
        assert trainer.fault_counters.crashes == 1
        crashed = trainer.workers[1]
        assert crashed.halo_features is not halos[1]
        assert crashed.first_hop_cache is not hops[1]
        for w in (0, 2):
            assert trainer.workers[w].first_hop_cache is hops[w]
        _assert_layer_one_from_scratch(trainer, pulled)

    def test_crash_respawn_under_multiprocess(self, graph, build_log):
        faults = FaultConfig(enabled=True, crash_schedule=((2, 1),))
        trainer = _trainer(graph, faults=faults, execution="multiprocess")
        try:
            for t in range(4):
                trainer.run_epoch(t)
            ids = [id(state.a_local) for state in trainer.workers]
        finally:
            trainer.close()
        # The respawned worker 1 rebuilds once from its refetched halo.
        assert build_log() == {ids[0]: 1, ids[1]: 2, ids[2]: 1}

    def test_elastic_partition_adoption(self, graph, layer_one_params):
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            permanent_failures=((2, 1),),
        )
        trainer = _trainer(graph, faults=faults)
        pulled = layer_one_params(trainer)
        for t in range(2):
            trainer.run_epoch(t)
        hops = [state.first_hop_cache for state in trainer.workers]
        for t in range(2, 4):
            trainer.run_epoch(t)
            _assert_layer_one_from_scratch(trainer, pulled)
        assert trainer.fault_counters.adoptions == 1
        for state in trainer.engine.ctx.active_workers():
            assert state.first_hop_cache is not hops[state.worker_id]

    def test_every_online_resample(self, graph, layer_one_params):
        trainer = SampledECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3), fanouts=[3, 3],
            config=ECGraphConfig(seed=0, fp_mode="compress",
                                 bp_mode="resec"),
            online=True,
        )
        pulled = layer_one_params(trainer)
        previous = None
        for t in range(4):
            trainer.run_epoch(t)
            _assert_layer_one_from_scratch(trainer, pulled)
            hops = [state.first_hop_cache for state in trainer.workers]
            adjacencies = [
                trainer.engine.backend.adjacency(state, 1)
                for state in trainer.workers
            ]
            assert [h.adjacency for h in hops] == adjacencies
            if previous is not None:
                old_hops, old_adjacencies = previous
                # X_cat survives a resample; M^1 follows the adjacency.
                assert [h.h_cat for h in hops] == [
                    h.h_cat for h in old_hops
                ]
                for new, old in zip(adjacencies, old_adjacencies):
                    assert new is not old
            previous = hops, adjacencies
        # Exact evaluation aggregates over the full adjacency; it must
        # not evict the sampled M^1.
        trainer.evaluate_exact()
        assert [
            state.first_hop_cache.adjacency for state in trainer.workers
        ] == adjacencies


# ----------------------------------------------------------------------
# (c) off when the first hop is not cached
# ----------------------------------------------------------------------
def test_cache_first_hop_off_never_builds(graph, build_log):
    trainer = _trainer(graph, cache_first_hop=False)
    for t in range(3):
        trainer.run_epoch(t)
    trainer.evaluate_exact()
    assert all(state.first_hop_cache is None for state in trainer.workers)
    assert not build_log()


# ----------------------------------------------------------------------
# (d) read-only
# ----------------------------------------------------------------------
def test_cached_arrays_are_read_only(graph):
    trainer = _trainer(graph, transform_first=False)
    trainer.run_epoch(0)
    state = trainer.workers[0]
    hop = state.first_hop_cache
    with pytest.raises(ValueError, match="read-only"):
        hop.h_cat[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        hop.aggregated(state.a_local)[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        np.add(hop.h_cat, 1.0, out=hop.h_cat)
