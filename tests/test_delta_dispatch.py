"""Delta-encoded dispatch, sparse aggregation, and CoW pools (ISSUE 5).

The contract under test: the versioned-parameter layer is a pure wire
optimisation.  Seeded results are bit-identical with delta dispatch on
or off, across backends, across a worker kill -9 (full re-sync), and
across checkpoint/resume (cold caches) — correctness never depends on
cache warmth.  Alongside: the server's in-place sparse gradient
aggregation equals a naive dense sum, and the copy-on-write memory
pools share unchanged arrays between rounds.
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro.checkpoint import restore_search_state, save_search_state
from repro.controller import ArchitecturePolicy
from repro.core import ExperimentConfig, FederatedModelSearch
from repro.data import iid_partition, synth_cifar10
from repro.federated import (
    DeltaCacheMiss,
    DistributionDelay,
    FederatedSearchServer,
    LocalStepTask,
    ParameterVersions,
    Participant,
    build_backend,
    resolve_task,
    split_delta,
)
from repro.federated.memory import MemoryPools
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry import Telemetry
from repro.transport import SocketBackend, WorkerServer

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def make_server(backend_name="serial", seed=0, delta=False, telemetry=None):
    train, _ = synth_cifar10(seed=1, train_per_class=10, test_per_class=2, image_size=8)
    shards = iid_partition(train, 3, rng=np.random.default_rng(0))
    supernet = Supernet(TINY, rng=np.random.default_rng(seed + 1))
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(seed + 2))
    participants = [
        Participant(k, s, batch_size=8, rng=np.random.default_rng(seed + 10 + k))
        for k, s in enumerate(shards)
    ]
    backend = build_backend(
        backend_name,
        participants,
        TINY,
        num_workers=2,
        telemetry=telemetry,
        delta_dispatch=delta,
    )
    return FederatedSearchServer(
        supernet,
        policy,
        participants,
        delay_model=DistributionDelay(
            [0.6, 0.4], staleness_threshold=2, rng=np.random.default_rng(seed + 3)
        ),
        rng=np.random.default_rng(seed + 4),
        backend=backend,
        telemetry=telemetry,
    )


def assert_servers_equal(a, b):
    np.testing.assert_array_equal(a.policy.alpha, b.policy.alpha)
    for (name, p_a), (_, p_b) in zip(
        a.supernet.named_parameters(), b.supernet.named_parameters()
    ):
        np.testing.assert_array_equal(p_a.data, p_b.data, err_msg=name)
    for (name, b_a), (_, b_b) in zip(
        a.supernet.named_buffers(), b.supernet.named_buffers()
    ):
        np.testing.assert_array_equal(b_a, b_b, err_msg=name)


# ----------------------------------------------------------------------
# Version protocol units
# ----------------------------------------------------------------------
class TestVersioning:
    def test_versions_start_at_one_and_bump(self):
        versions = ParameterVersions(["a", "b"])
        assert versions["a"] == 1 and versions["b"] == 1
        versions.bump(["a"])
        assert versions["a"] == 2 and versions["b"] == 1
        versions.bump_all()
        assert versions["a"] == 3 and versions["b"] == 2
        assert versions.subset(["b"]) == {"b": 2}

    def test_split_delta_ships_only_unacked(self):
        state = {"a": np.ones(2), "b": np.zeros(2), "c": np.full(2, 3.0)}
        versions = {"a": 2, "b": 1, "c": 5}
        delta, refs = split_delta(state, versions, {"a": 2, "b": 1, "c": 4})
        assert set(delta) == {"c"}  # stale ack → re-ship
        assert refs == {"a": 2, "b": 1}
        # Never-acked receiver gets everything.
        delta, refs = split_delta(state, versions, {})
        assert set(delta) == set(state) and refs == {}

    def test_resolve_task_merges_refs_and_caches_shipped(self):
        cache = {}
        full = LocalStepTask(
            participant_id=0,
            round_index=0,
            mask=None,
            state={"a": np.ones(2), "b": np.zeros(2)},
            batch_seed=7,
            state_versions={"a": 1, "b": 1},
        )
        resolved = resolve_task(full, cache)
        assert set(resolved.state) == {"a", "b"}
        assert cache["a"][0] == 1 and cache["b"][0] == 1

        delta = LocalStepTask(
            participant_id=0,
            round_index=1,
            mask=None,
            state={"a": np.full(2, 9.0)},
            batch_seed=8,
            state_versions={"a": 2},
            state_refs={"b": 1},
        )
        resolved = resolve_task(delta, cache)
        np.testing.assert_array_equal(resolved.state["a"], np.full(2, 9.0))
        np.testing.assert_array_equal(resolved.state["b"], np.zeros(2))
        assert resolved.state_refs is None
        assert cache["a"][0] == 2  # shipped entry re-cached at new version

    def test_resolve_task_raises_on_cold_or_stale_cache(self):
        delta = LocalStepTask(
            participant_id=0,
            round_index=0,
            mask=None,
            state={},
            batch_seed=0,
            state_versions={},
            state_refs={"b": 2},
        )
        with pytest.raises(DeltaCacheMiss):
            resolve_task(delta, {})
        with pytest.raises(DeltaCacheMiss) as exc:
            resolve_task(delta, {"b": (1, np.zeros(2))})
        assert exc.value.missing == ["b"]


# ----------------------------------------------------------------------
# Packed state blobs (the tensor-blob wire format)
# ----------------------------------------------------------------------
class TestPackedState:
    def state(self):
        rng = np.random.default_rng(3)
        return {
            "w": rng.normal(size=(4, 3, 2)),
            "b": rng.normal(size=(5,)),
            "scalar": np.array(2.5),
        }

    def test_round_trip_is_lossless_at_float64(self):
        from repro.nn import pack_state, unpack_state

        state = self.state()
        back = unpack_state(pack_state(state, dtype="float64"))
        assert list(back) == list(state)
        for name in state:
            assert back[name].dtype == np.float64
            np.testing.assert_array_equal(back[name], state[name], err_msg=name)

    def test_zlib_round_trip_and_truncation(self):
        from repro.nn import pack_state, unpack_state

        state = self.state()
        blob = pack_state(state, dtype="float64", compress=True)
        back = unpack_state(blob, compressed=True)
        np.testing.assert_array_equal(back["w"], state["w"])
        with pytest.raises(ValueError):
            unpack_state(pack_state(state, dtype="float64")[:-3])

    def test_much_smaller_than_npz_for_many_small_arrays(self):
        import io

        from repro.nn import pack_state

        state = {f"p{i}": np.zeros(8) for i in range(40)}
        packed = len(pack_state(state, dtype="float64"))
        buffer = io.BytesIO()  # the npz container tensor blobs once used
        np.savez(buffer, **state)
        npz = len(buffer.getvalue())
        assert packed < npz / 3

    def test_packed_task_payload_round_trips(self):
        from repro.transport import codec

        rng = np.random.default_rng(0)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        mask = policy.sample_mask()
        task = LocalStepTask(
            participant_id=1,
            round_index=2,
            mask=mask,
            state=supernet.submodel_state(mask),
            batch_seed=9,
            state_versions={name: 1 for name in supernet.submodel_state(mask)},
        )
        payload = codec.encode_task(task, 5)
        assert payload[0] & codec._FLAG_PACKED
        decoded, seq = codec.decode_task(payload)
        assert seq == 5
        assert decoded.state_versions == task.state_versions
        for name in task.state:
            np.testing.assert_array_equal(
                decoded.state[name], task.state[name], err_msg=name
            )


# ----------------------------------------------------------------------
# Sparse aggregation
# ----------------------------------------------------------------------
class TestSparseAggregation:
    def test_in_place_sum_equals_dense(self):
        server = make_server("serial", seed=3)
        rng = np.random.default_rng(0)
        names = ["w1", "w2", "w3"]
        updates = [
            {name: rng.normal(size=(4, 3)) for name in names if rng.random() < 0.8}
            for _ in range(6)
        ]
        dense = {}
        for gradients in updates:
            for name, grad in gradients.items():
                dense[name] = dense.get(name, np.zeros_like(grad)) + grad
        sparse = {}
        for gradients in updates:
            server._add_gradients(sparse, gradients)
        assert set(sparse) == set(dense)
        for name in dense:
            np.testing.assert_array_equal(sparse[name], dense[name], err_msg=name)

    def test_buffers_reused_across_rounds(self):
        server = make_server("serial", seed=3)
        grads = {"w": np.ones((2, 2))}
        first = {}
        server._add_gradients(first, grads)
        buffer = first["w"]
        second = {}
        server._add_gradients(second, {"w": np.full((2, 2), 5.0)})
        assert second["w"] is buffer  # preallocated buffer, no fresh zeros dict
        np.testing.assert_array_equal(second["w"], np.full((2, 2), 5.0))

    def test_seeded_run_unchanged_by_aggregation_path(self):
        # The sparse path is the only path now; pin its end-to-end result
        # against the serial reference that predates it (bit-identity of
        # two independently seeded servers).
        a = make_server("serial", seed=0)
        b = make_server("serial", seed=0)
        ra = a.run(4)
        rb = b.run(4)
        assert repr(ra) == repr(rb)
        assert_servers_equal(a, b)


# ----------------------------------------------------------------------
# Copy-on-write memory pools
# ----------------------------------------------------------------------
class TestCowPools:
    def test_unchanged_params_share_arrays_between_rounds(self):
        pools = MemoryPools(staleness_threshold=2)
        theta = {"a": np.ones(3), "b": np.zeros(3)}
        versions = ParameterVersions(["a", "b"])
        alpha = np.zeros(2)
        pools.save_round(0, theta, alpha, versions=versions)
        versions.bump(["a"])
        theta["a"] = theta["a"] + 1.0
        pools.save_round(1, theta, alpha, versions=versions)
        assert pools.theta(0)["b"] is pools.theta(1)["b"]  # shared frozen copy
        assert pools.theta(0)["a"] is not pools.theta(1)["a"]
        np.testing.assert_array_equal(pools.theta(0)["a"], np.ones(3))
        np.testing.assert_array_equal(pools.theta(1)["a"], np.full(3, 2.0))

    def test_snapshots_immune_to_later_mutation(self):
        pools = MemoryPools(staleness_threshold=2)
        theta = {"a": np.ones(3)}
        versions = ParameterVersions(["a"])
        pools.save_round(0, theta, np.zeros(1), versions=versions)
        theta["a"][...] = 99.0  # in-place optimizer-style mutation
        np.testing.assert_array_equal(pools.theta(0)["a"], np.ones(3))

    def test_pool_memory_scales_with_changed_params(self):
        """Regression for the old deep-copy: distinct arrays across the
        window must be O(full θ + changed × window), not O(full θ × window)."""
        pools = MemoryPools(staleness_threshold=8)
        names = [f"p{i}" for i in range(20)]
        theta = {name: np.zeros(4) for name in names}
        versions = ParameterVersions(names)
        window = 9
        for t in range(window):
            pools.save_round(t, theta, np.zeros(1), versions=versions)
            versions.bump([f"p{t % 20}"])  # one parameter changes per round
            theta[f"p{t % 20}"] = theta[f"p{t % 20}"] + 1.0
        distinct = {
            id(arr) for t in range(window) for arr in pools.theta(t).values()
        }
        deep_copy_count = len(names) * window  # 180 under the old behaviour
        assert len(distinct) <= len(names) + window  # ≤ 29 with CoW
        assert len(distinct) < deep_copy_count / 3

    def test_versionless_save_still_deep_copies(self):
        pools = MemoryPools(staleness_threshold=2)
        theta = {"a": np.ones(3)}
        pools.save_round(0, theta, np.zeros(1))
        assert pools.theta(0)["a"] is not theta["a"]
        np.testing.assert_array_equal(pools.theta(0)["a"], theta["a"])


# ----------------------------------------------------------------------
# Bit-identity: delta on vs off, across backends
# ----------------------------------------------------------------------
class TestDeltaBitIdentity:
    @pytest.mark.parametrize("backend_name", ["process", "socket"])
    def test_server_rounds_match_serial(self, backend_name):
        reference = make_server("serial", seed=0)
        reference.run(5)
        delta = make_server(backend_name, seed=0, delta=True)
        try:
            delta.run(5)
        finally:
            delta.backend.close()
        assert_servers_equal(reference, delta)

    def test_small_profile_search_report_matches(self):
        """ISSUE 5 acceptance: seeded ``SearchReport`` bit-identical with
        delta dispatch on vs off."""
        reports = {}
        for delta in (False, True):
            config = ExperimentConfig.small(
                seed=1,
                backend="process",
                num_workers=2,
                telemetry_enabled=False,
                delta_dispatch=delta,
            )
            pipeline = FederatedModelSearch(config)
            try:
                reports[delta] = pipeline.run()
            finally:
                pipeline.close()
        off, on = reports[False], reports[True]
        assert off.genotype == on.genotype
        assert off.test_accuracy == on.test_accuracy
        assert off.model_parameters == on.model_parameters
        assert off.simulated_search_time_s == on.simulated_search_time_s
        for attr in ("warmup_results", "search_results"):
            for a, b in zip(getattr(off, attr), getattr(on, attr)):
                assert a == b, f"{attr} diverged at round {a.round_index}"

    def test_socket_kill9_forces_full_resync_and_stays_identical(self):
        """kill -9 a worker mid-run: the respawned daemon starts cold,
        the server full-syncs it, and the run stays bit-identical."""
        reference = make_server("serial", seed=0)
        reference.run(6)

        telemetry = Telemetry()
        delta = make_server("socket", seed=0, delta=True, telemetry=telemetry)
        try:
            delta.run(3)
            victim = next(
                e for e in delta.backend._endpoints if e.proc is not None
            )
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.wait(timeout=10)
            delta.run(3)
        finally:
            delta.backend.close()

        assert_servers_equal(reference, delta)
        events = {e["event"] for e in telemetry.events()}
        assert "transport.worker_respawned" in events

    def test_resume_from_cold_caches_matches_uninterrupted(self, tmp_path):
        """--resume path: restore bumps every version, so the first
        dispatch after resume ships full state to every (cold) worker."""
        uninterrupted = make_server("socket", seed=0, delta=True)
        try:
            reference = uninterrupted.run(6)
        finally:
            uninterrupted.backend.close()

        first = make_server("socket", seed=0, delta=True)
        try:
            head = first.run(3)
            path = tmp_path / "mid.ckpt"
            save_search_state(first, path)
        finally:
            first.backend.close()

        second = make_server("socket", seed=0, delta=True)
        try:
            restore_search_state(second, path)
            # Every version was bumped: nothing a worker acked before the
            # checkpoint may satisfy a reference.
            assert all(
                second.versions.get(name) > 1
                for name, _ in second.supernet.named_parameters()
            )
            tail = second.run(3)
        finally:
            second.backend.close()

        assert repr(head + tail) == repr(reference)
        assert_servers_equal(uninterrupted, second)


# ----------------------------------------------------------------------
# Wire behaviour of the socket backend
# ----------------------------------------------------------------------
class TestDeltaWire:
    def build_backend_with_worker(self, telemetry=None, delta=True):
        """External in-thread daemon so the test can reach its cache."""
        train, _ = synth_cifar10(
            seed=1, train_per_class=10, test_per_class=2, image_size=8
        )
        shards = iid_partition(train, 3, rng=np.random.default_rng(0))
        participants = [
            Participant(k, s, batch_size=8, rng=np.random.default_rng(k))
            for k, s in enumerate(shards)
        ]
        daemon = WorkerServer(port=0)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        backend = SocketBackend(
            participants,
            TINY,
            workers=[f"{daemon.host}:{daemon.port}"],
            task_timeout_s=60.0,
            telemetry=telemetry,
            delta_dispatch=delta,
        )
        return backend, daemon, thread, participants

    def make_round_tasks(self, versions, seed=0, round_index=0):
        rng = np.random.default_rng(seed)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        tasks = []
        for k in range(3):
            mask = policy.sample_mask()
            state = supernet.submodel_state(mask)
            tasks.append(
                LocalStepTask(
                    participant_id=k,
                    round_index=round_index,
                    mask=mask,
                    state=state,
                    batch_seed=seed + k,
                    state_versions=versions.subset(state),
                )
            )
        return tasks

    def test_second_round_sends_fewer_bytes(self):
        telemetry = Telemetry()
        backend, daemon, thread, _ = self.build_backend_with_worker(telemetry)
        names = None
        try:
            rng = np.random.default_rng(0)
            supernet = Supernet(TINY, rng=rng)
            names = [n for n, _ in supernet.named_parameters()] + [
                n for n, _ in supernet.named_buffers()
            ]
            versions = ParameterVersions(names)
            first = backend.run_tasks(self.make_round_tasks(versions, seed=0))
            second = backend.run_tasks(
                self.make_round_tasks(versions, seed=0, round_index=1)
            )
            assert all(r.ok for r in first) and all(r.ok for r in second)
        finally:
            backend.close()
            daemon.stop()
            thread.join(timeout=5)
        rounds = [
            e for e in telemetry.events() if e["event"] == "transport.round"
        ]
        assert len(rounds) == 2
        # Round 1 pays at least one full send (cold cache); round 2 with
        # unchanged versions is all refs, so strictly fewer bytes.
        assert rounds[1]["bytes_sent"] < rounds[0]["bytes_sent"]
        dispatch = [
            e for e in telemetry.events() if e["event"] == "dispatch.round"
        ]
        assert dispatch[0]["full_syncs"] >= 1
        assert dispatch[1]["full_syncs"] == 0
        assert dispatch[1]["params_cached"] > dispatch[0]["params_cached"]
        assert dispatch[1]["cache_hit"] > 0.9

    def test_cache_miss_triggers_full_resend_not_failure(self):
        telemetry = Telemetry()
        backend, daemon, thread, _ = self.build_backend_with_worker(telemetry)
        try:
            rng = np.random.default_rng(0)
            supernet = Supernet(TINY, rng=rng)
            names = [n for n, _ in supernet.named_parameters()] + [
                n for n, _ in supernet.named_buffers()
            ]
            versions = ParameterVersions(names)
            first = backend.run_tasks(self.make_round_tasks(versions, seed=0))
            assert all(r.ok for r in first)
            # Wipe the daemon's cache behind the server's back: the next
            # delta references versions the daemon no longer holds.
            daemon._param_cache.clear()
            second = backend.run_tasks(
                self.make_round_tasks(versions, seed=0, round_index=1)
            )
            assert all(r.ok for r in second)
            assert all(r.attempts == 1 for r in second)  # not a retry
        finally:
            backend.close()
            daemon.stop()
            thread.join(timeout=5)
        events = [e["event"] for e in telemetry.events()]
        assert "transport.delta_resync" in events
        dispatch = [
            e for e in telemetry.events() if e["event"] == "dispatch.round"
        ]
        assert dispatch[1]["cache_misses"] >= 1

    def test_delta_off_strips_version_metadata(self):
        backend, daemon, thread, _ = self.build_backend_with_worker(delta=False)
        try:
            rng = np.random.default_rng(0)
            supernet = Supernet(TINY, rng=rng)
            names = [n for n, _ in supernet.named_parameters()] + [
                n for n, _ in supernet.named_buffers()
            ]
            versions = ParameterVersions(names)
            results = backend.run_tasks(self.make_round_tasks(versions, seed=0))
            assert all(r.ok for r in results)
            # The daemon never saw version metadata → nothing was cached.
            assert daemon._param_cache == {}
        finally:
            backend.close()
            daemon.stop()
            thread.join(timeout=5)
