"""Property-based determinism sweep over the execution backends.

Across ~50 random seed × shard-count × batch-size × cross-shard-fraction
configurations (the same sampling style as ``test_cluster_settlement.py``),
the execution backends must uphold two properties, stated on the canonical
:meth:`~repro.cluster.result.ClusterResult.fingerprint`:

* **Determinism** — the same configuration run twice on the same backend
  yields the identical fingerprint (no wall-clock, process-scheduling or
  worker-assignment leakage into results), and
* **Equivalence** — different backends yield the identical fingerprint for
  the same configuration (parallel execution never changes what the
  protocol did).

The wide sweep runs ``SerialBackend`` twice and ``ProcessPoolBackend``
once per configuration; a narrower sweep runs ``ProcessPoolBackend`` twice
per configuration — same seed twice ⇒ identical fingerprint, and identical
to the serial reference.

Two further sweeps pin the epoch-barrier drive loop itself under every epoch
policy (fixed, adaptive, latency-target): a run paused once at a random
horizon and resumed fingerprints like the uninterrupted run, and a mid-run
:class:`MigrationPlan` leaves the process pool equal to the unmigrated
serial reference.  The policies and plans are stateful, so every run builds
fresh ones from a factory.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    AdaptiveEpochPolicy,
    ClusterSystem,
    FixedEpochPolicy,
    LatencyTargetEpochPolicy,
    MigrationPlan,
)
from repro.network.node import NetworkConfig
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

FAST_NETWORK = NetworkConfig(
    latency_base=0.0002,
    latency_mean=0.0003,
    processing_time=0.000002,
    signature_verification_time=0.00002,
    seed=42,
)

REPLICAS = 4
INITIAL_BALANCE = 100

POLICIES = {
    "fixed": lambda: FixedEpochPolicy(0.005),
    "adaptive": lambda: AdaptiveEpochPolicy(initial_epoch=0.005),
    "latency-target": lambda: LatencyTargetEpochPolicy(initial_epoch=0.005),
}


def _fingerprint(backend, seed, shards, batch, fraction, max_workers=None):
    system = ClusterSystem(
        shard_count=shards,
        replicas_per_shard=REPLICAS,
        batch_size=batch,
        broadcast="bracha",
        initial_balance=INITIAL_BALANCE,
        network_config=FAST_NETWORK,
        backend=backend,
        max_workers=max_workers,
        seed=seed % 997,
    )
    try:
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60,
                aggregate_rate=2_000.0,
                duration=0.02,
                zipf_skew=1.0,
                cross_shard_fraction=fraction,
                router=system.router if fraction is not None else None,
                seed=seed,
            )
        )
        system.schedule_submissions(workload)
        result = system.run()
        assert system.check_definition1().ok
        return result.fingerprint()
    finally:
        system.close()


def _policy_run(backend, seed, fraction, policy, pause=None, migrate=False):
    """Fingerprint of one 3-shard run under ``policy``, optionally paused once
    at ``pause`` and resumed, optionally with two mid-run migration moves."""
    system = ClusterSystem(
        shard_count=3,
        replicas_per_shard=REPLICAS,
        batch_size=4,
        broadcast="bracha",
        initial_balance=INITIAL_BALANCE,
        network_config=FAST_NETWORK,
        backend=backend,
        epoch_policy=POLICIES[policy](),
        migration=MigrationPlan([(0.008, 1, 0), (0.014, 2, 1)]) if migrate else None,
        max_workers=2,
        seed=seed % 997,
    )
    try:
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60,
                aggregate_rate=2_000.0,
                duration=0.02,
                zipf_skew=1.0,
                cross_shard_fraction=fraction,
                router=system.router,
                seed=seed,
            )
        )
        system.schedule_submissions(workload)
        if pause is not None:
            system.run(until=pause)
        result = system.run()
        assert system.check_definition1().ok
        if migrate:
            assert result.migration_stream
        return result.fingerprint()
    finally:
        system.close()


class TestBackendDeterminismProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        shards=st.sampled_from([1, 2, 3]),
        batch=st.sampled_from([1, 4]),
        fraction=st.sampled_from([None, 0.0, 0.5, 1.0]),
    )
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_serial_is_deterministic_and_process_matches_it(
        self, seed, shards, batch, fraction
    ):
        first = _fingerprint("serial", seed, shards, batch, fraction)
        again = _fingerprint("serial", seed, shards, batch, fraction)
        pooled = _fingerprint("process", seed, shards, batch, fraction, max_workers=2)
        assert first == again  # same seed, same backend => same bytes
        assert first == pooled  # same seed, different backend => same bytes

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        shards=st.sampled_from([2, 3]),
        batch=st.sampled_from([1, 4]),
        fraction=st.sampled_from([0.5, 1.0]),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_process_pool_is_deterministic_and_matches_serial(
        self, seed, shards, batch, fraction
    ):
        first = _fingerprint("process", seed, shards, batch, fraction, max_workers=2)
        again = _fingerprint("process", seed, shards, batch, fraction, max_workers=2)
        serial = _fingerprint("serial", seed, shards, batch, fraction)
        assert first == again
        assert first == serial

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        fraction=st.sampled_from([0.0, 0.5, 1.0]),
        policy=st.sampled_from(sorted(POLICIES)),
        pause=st.floats(min_value=0.001, max_value=0.03),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_a_paused_and_resumed_run_matches_the_uninterrupted_one(
        self, seed, fraction, policy, pause
    ):
        paused = _policy_run("serial", seed, fraction, policy, pause=pause)
        assert paused == _policy_run("serial", seed, fraction, policy)

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        fraction=st.sampled_from([0.0, 0.5]),
        policy=st.sampled_from(sorted(POLICIES)),
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_migrated_process_pool_matches_the_unmigrated_serial_run(
        self, seed, fraction, policy
    ):
        migrated = _policy_run("process", seed, fraction, policy, migrate=True)
        assert migrated == _policy_run("serial", seed, fraction, policy)
