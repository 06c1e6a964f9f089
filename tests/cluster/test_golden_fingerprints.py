"""Golden fingerprints: absolute pins on small runs, not backend-vs-backend.

Every other fingerprint test compares one backend (or placement, pacing,
telemetry mode) against another, so a change that shifts the result on
*every* backend at once — in the scheduler loop they share, the settlement
exchange or the shard protocol — would pass them all.  These pins catch
that: each configuration's :meth:`ClusterResult.fingerprint` must equal a
hash recorded once and committed here, on the serial reference and on the
process pool alike.

The configurations cover the barrier machinery that shapes results: a fixed
grid with settlement, one manual migration and a checkpoint cadence; an
adaptive epoch policy; and a latency-target policy with batching.  The hashes
were recorded with CPython 3.11; a deliberate behaviour change re-records
them and says so in its change log.
"""

import pytest

from repro.cluster import (
    AdaptiveEpochPolicy,
    ClusterSystem,
    LatencyTargetEpochPolicy,
)
from repro.cluster.migration import MigrationPlan
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

# Factories, because migration plans and epoch policies keep state per run.
CONFIGS = {
    "fixed-migrate-checkpoint": lambda: dict(
        shard_count=3,
        batch_size=2,
        migration=MigrationPlan([(0.01, 0, 1)]),
        checkpoint_every=2,
    ),
    "adaptive": lambda: dict(
        shard_count=4,
        batch_size=1,
        epoch_policy=AdaptiveEpochPolicy(),
    ),
    "latency-target": lambda: dict(
        shard_count=3,
        batch_size=4,
        epoch_policy=LatencyTargetEpochPolicy(target_p95=0.004),
    ),
}

GOLDEN = {
    "fixed-migrate-checkpoint": "54f12a2050d98955a0dec8962a46753bf1a16dd22a3efa673bbb066b38e6bd28",
    "adaptive": "68d30aa03f75902812ce065892432c334ac1df991d51b6948760f29a171ed538",
    "latency-target": "94c3f251704d843a419be376ed53147294cc66718bc87489fb240da2ba828d4a",
}


def _fingerprint(fast_network, name, backend):
    system = ClusterSystem(
        replicas_per_shard=4,
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        max_workers=2,
        seed=11,
        **CONFIGS[name](),
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=48,
            aggregate_rate=2_000.0,
            duration=0.03,
            cross_shard_fraction=0.4,
            router=system.router,
            seed=11,
        )
    )
    try:
        system.schedule_submissions(workload)
        result = system.run()
        assert system.check_definition1().ok
        assert result.settlement_stream and result.retirement_stream
        if system.checkpoint_every is not None:
            assert result.migration_stream
            assert system.checkpoint_stats()["taken"]
        return result.fingerprint()
    finally:
        system.close()


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_fingerprint(fast_network, name, backend):
    assert _fingerprint(fast_network, name, backend) == GOLDEN[name]
