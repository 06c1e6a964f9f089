"""Contracts of the epoch-barrier drive loop, on both epoch backends.

:meth:`EpochScheduler.run` is the single loop that drives every epoch-mode
run: all shards stop at every barrier, the barrier phases (checkpoint,
migrate, settlement exchange) run, and every shard advances to the next
barrier.  This module pins what that loop promises beyond plain
serial-vs-process equality (``test_backend_equivalence.py``):

* pausing with ``until=`` and resuming — once or several times, under every
  epoch policy, via ``run()`` or ``drain()``, with a checkpoint cadence —
  reaches the uninterrupted fingerprint, and a pause holds every shard at
  the horizon,
* migration moves execute at barriers without touching the fingerprint,
  under every epoch policy,
* the process pool matches the serial reference for any worker count,
* settlement certificates are delivered in source order per issuer, the
  one cross-shard obligation of single-owner transfers,
* every rendezvous records one ``barrier_stall`` observation, and the event
  budget holds on the process pool,
* the loop stops only at quiescence, with nothing left queued or pending,
  and
* the configuration surface is exactly two backends: no thread backend,
  migrations the only placement section.
"""

import pytest

from repro.cluster import (
    AdaptiveEpochPolicy,
    ClusterResult,
    ClusterSystem,
    FixedEpochPolicy,
    LatencyTargetEpochPolicy,
    MigrationPlan,
)
from repro.cluster.backends import BACKEND_NAMES, make_backend
from repro.common.errors import ConfigurationError, SimulationError
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

BACKENDS = ("serial", "process")

# Factories, because epoch policies and migration plans keep state per run.
POLICIES = {
    "fixed": lambda: FixedEpochPolicy(0.005),
    "adaptive": lambda: AdaptiveEpochPolicy(initial_epoch=0.005),
    "latency-target": lambda: LatencyTargetEpochPolicy(initial_epoch=0.005),
}


def _plan():
    return MigrationPlan([(0.008, 1, 0), (0.014, 2, 1)])


def _system(fast_network, backend="serial", policy="fixed", **kwargs):
    system = ClusterSystem(
        shard_count=kwargs.pop("shard_count", 3),
        replicas_per_shard=4,
        batch_size=kwargs.pop("batch_size", 4),
        broadcast="bracha",
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        epoch_policy=POLICIES[policy](),
        max_workers=kwargs.pop("max_workers", 2),
        seed=9,
        **kwargs,
    )
    system.schedule_submissions(
        cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60,
                aggregate_rate=2_000.0,
                duration=0.02,
                zipf_skew=1.0,
                cross_shard_fraction=0.5,
                router=system.router,
                seed=5,
            )
        )
    )
    return system


def _run(fast_network, backend="serial", policy="fixed", **kwargs):
    system = _system(fast_network, backend=backend, policy=policy, **kwargs)
    try:
        result = system.run()
        assert system.check_definition1().ok
        return result
    finally:
        system.close()


class TestPauseAndResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_repeated_pauses_reach_the_uninterrupted_fingerprint(
        self, fast_network, policy, backend
    ):
        system = _system(fast_network, backend=backend, policy=policy)
        try:
            for until in (0.004, 0.011):
                partial = system.run(until=until)
                assert partial.duration <= until
            resumed = system.run()
            assert system.check_definition1().ok
        finally:
            system.close()
        uninterrupted = _run(fast_network, backend=backend, policy=policy)
        assert resumed.comparable_payload() == uninterrupted.comparable_payload()
        assert resumed.fingerprint() == uninterrupted.fingerprint()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drain_after_a_pause_matches_run(self, fast_network, backend):
        system = _system(fast_network, backend=backend)
        try:
            system.run(until=0.01)
            drained = system.drain()
            assert drained.audit["fully_settled"]
        finally:
            system.close()
        assert drained.fingerprint() == _run(fast_network, backend=backend).fingerprint()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pauses_between_checkpoints_keep_the_fingerprint(self, fast_network, backend):
        system = _system(fast_network, backend=backend, checkpoint_every=2)
        try:
            for until in (0.006, 0.013):
                system.run(until=until)
            resumed = system.run()
            assert system.checkpoint_stats()["taken"]
        finally:
            system.close()
        assert resumed.fingerprint() == _run(fast_network, backend=backend).fingerprint()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_pause_holds_every_shard_at_the_horizon(self, fast_network, backend):
        system = _system(fast_network, backend=backend)
        try:
            system.run(until=0.01)
            scheduler = system.scheduler
            assert scheduler.now == 0.01
            # Every shard ran exactly through the horizon and has work left
            # strictly after it — none ran ahead, none was left behind.
            reports = scheduler._reports
            assert sorted(reports) == [0, 1, 2]
            for report in reports.values():
                assert report.now <= 0.01
                if report.next_event_time is not None:
                    assert report.next_event_time > 0.01
            assert any(report.pending_events for report in reports.values())
        finally:
            system.close()


class TestMigrationThroughTheLoop:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_moves_run_at_barriers_and_leave_the_fingerprint_alone(
        self, fast_network, policy
    ):
        serial = _run(fast_network, "serial", policy, migration=_plan())
        pooled = _run(fast_network, "process", policy, migration=_plan())
        unmigrated = _run(fast_network, "serial", policy)
        assert len(serial.migration_stream) == 2
        assert serial.migration_stream == pooled.migration_stream
        # Moves happen at taken barriers, in plan order.
        barriers = [entry[0] for entry in serial.migration_stream]
        assert barriers == sorted(barriers)
        assert serial.fingerprint() == pooled.fingerprint() == unmigrated.fingerprint()


class TestWorkerCountIndependence:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_process_pool_matches_serial_for_any_worker_count(
        self, fast_network, workers
    ):
        serial = _run(fast_network, "serial")
        pooled = _run(fast_network, "process", max_workers=workers)
        assert pooled.comparable_payload() == serial.comparable_payload()


class TestSourceOrderedSettlement:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_issuer_settles_in_sequence_order(self, fast_network, backend):
        system = _system(fast_network, backend=backend)
        try:
            system.run()
            signature = system.settlement_signature()
        finally:
            system.close()
        assert signature
        last = {}
        for source, destination, issuer, sequence, _account, _amount in signature:
            assert source != destination
            stream = (source, destination, issuer)
            assert sequence > last.get(stream, 0)
            last[stream] = sequence


    def test_migrated_process_pool_settles_in_sequence_order(self, fast_network):
        system = _system(fast_network, backend="process", migration=_plan())
        try:
            result = system.run()
            signature = system.settlement_signature()
        finally:
            system.close()
        assert len(result.migration_stream) == 2
        last = {}
        for source, destination, issuer, sequence, _account, _amount in signature:
            stream = (source, destination, issuer)
            assert sequence > last.get(stream, 0)
            last[stream] = sequence


class TestQuiescence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_loop_stops_only_with_nothing_left_anywhere(self, fast_network, backend):
        system = _system(fast_network, backend=backend)
        try:
            result = system.run()
            scheduler = system.scheduler
            assert scheduler.in_flight == 0
            assert not any(report.pending_events for report in scheduler._reports.values())
            assert result.audit["fully_settled"]
            # A second drive finds nothing to do and changes nothing.
            assert system.run().fingerprint() == result.fingerprint()
        finally:
            system.close()


class TestRendezvousTelemetry:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_advance_observes_one_barrier_stall(self, fast_network, backend):
        system = _system(fast_network, backend=backend)
        try:
            result = system.run()
            barriers = system.scheduler.barriers
        finally:
            system.close()
        stall = result.telemetry["driver"]["histograms"]["barrier_stall"]
        # The opening advance to time zero, then one rendezvous per barrier.
        assert barriers > 0
        assert stall["count"] == barriers + 1
        assert stall["min"] >= 0.0

    def test_event_budget_is_enforced_on_the_process_pool(self, fast_network):
        system = _system(fast_network, backend="process")
        try:
            with pytest.raises(SimulationError):
                system.run(max_events=50)
        finally:
            system.close()


class TestOneLoopSurface:
    def test_the_epoch_backends_are_serial_and_process(self):
        assert BACKEND_NAMES == ("serial", "process")
        for name in BACKEND_NAMES:
            backend = make_backend(name)
            try:
                assert backend.name == name
            finally:
                backend.close()

    def test_the_thread_backend_is_gone(self):
        with pytest.raises(ConfigurationError):
            make_backend("thread")
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=2, backend="thread")

    def test_migrations_are_the_only_placement_section(self, fast_network):
        assert ClusterResult.PLACEMENT_SECTIONS == ("migrations",)
        payload = _run(fast_network).fingerprint_payload()
        assert "migrations" in payload
        assert "barriers" not in payload

    def test_placement_is_compared_but_not_hashed(self, fast_network):
        migrated = _run(fast_network, migration=_plan())
        unmigrated = _run(fast_network)
        assert migrated.fingerprint() == unmigrated.fingerprint()
        # The payloads differ in — and only in — the placement section,
        # which payload-level comparisons do see.
        migrated_payload = migrated.comparable_payload()
        unmigrated_payload = unmigrated.comparable_payload()
        assert migrated_payload["migrations"] != unmigrated_payload["migrations"]
        migrated_payload.pop("migrations")
        unmigrated_payload.pop("migrations")
        assert migrated_payload == unmigrated_payload
