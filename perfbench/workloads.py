"""The benchmark's workloads and the inputs they feed the program.

Every workload is an open loop in *simulated* time: Poisson arrivals from
50,000 Zipf(1.0) users, generated here, outside any timed region, by the
program's own ``cluster_open_loop_workload``.  The program only receives the
resulting submission list.  The count of submissions is fixed per workload
(the first ``submissions`` arrivals of a window long enough to hold them), so
every seed offers the same amount of work; at seed 7 the fixed count is
exactly the reference run's own arrival count, so the inputs are the
reference inputs.

One benchmark run covers a workload's ``instances`` input instances: the
run's seed itself, then seeds derived from it.  A due-time tail percentile
from one instance of ~1,200 transfers swings by a quarter between seeds;
pooled over six instances it is steady enough to gate on.  deep-local's
batch-1 issuers queue more: over six instances its pooled p99 still spread
by 6-8% across ten seeds (quartile distance over median), and resampling 71
instances puts ten instances at about 4%.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DESIGN = Path(__file__).resolve().parent / "design.json"

USERS = 50_000
ZIPF_SKEW = 1.0
REPLICAS = 4
MAX_WORKERS = 2
MAX_EVENTS = 50_000_000
# The tiny size the self-test runs every workload at.
TINY_USERS = 2_000
TINY_SUBMISSIONS = 60
TINY_INSTANCES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    shards: int
    batch: int
    cross_shard_fraction: float
    rate: float
    duration: float
    submissions: int
    instances: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("ref", "serial", 8, 8, 0.25, 24_000.0, 0.05, 1_166, 6),
        Workload("ref-process", "process", 8, 8, 0.25, 24_000.0, 0.05, 1_166, 6),
        # At 1,200/s each of the 8 issuers (batch 1) runs near full load and
        # the due-time tail is mostly luck; 600/s keeps the work, steadies it.
        Workload("deep-local", "serial", 2, 1, 0.0, 600.0, 2.0, 1_166, 10),
    )
}


def import_program() -> None:
    """Put the checkout's ``src`` on the path; fail loudly if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC.relative_to(ROOT)}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def instance_seeds(workload: Workload, seed: int, tiny: bool = False) -> list:
    """The input instances of a run with ``seed``: the seed, then derived ones."""
    import_program()
    from repro.common.rng import derive_seed

    count = TINY_INSTANCES if tiny else workload.instances
    return [seed] + [derive_seed(seed, "perfbench-instance", j) for j in range(1, count)]


def submissions(workload: Workload, seed: int, tiny: bool = False):
    """The workload's submission list for ``seed`` (same seed, same list)."""
    import_program()
    from repro.cluster import ShardRouter
    from repro.workloads.cluster_driver import (
        ClusterWorkloadConfig,
        cluster_open_loop_workload,
    )

    count = TINY_SUBMISSIONS if tiny else workload.submissions
    # The router is a pure function of (shards, replicas, salt): the same one
    # the system under test builds for itself from the seed.
    router = ShardRouter(workload.shards, REPLICAS, salt=seed)
    generated = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=TINY_USERS if tiny else USERS,
            aggregate_rate=workload.rate,
            # Arrivals extend by prefix, so a longer window only adds a tail
            # that the cut below drops.
            duration=workload.duration * 1.5,
            zipf_skew=ZIPF_SKEW,
            cross_shard_fraction=workload.cross_shard_fraction,
            router=router,
            seed=seed,
        )
    )
    if len(generated) < count:
        raise SystemExit(
            f"perfbench: seed {seed} generated {len(generated)} arrivals for "
            f"{workload.name}, fewer than the fixed {count}"
        )
    return generated[:count]


def system_kwargs(workload: Workload, seed: int) -> dict:
    """``ClusterSystem`` arguments of a workload; telemetry stays at the default."""
    import_program()
    from repro.network.node import NetworkConfig

    return dict(
        shard_count=workload.shards,
        replicas_per_shard=REPLICAS,
        batch_size=workload.batch,
        network_config=NetworkConfig(seed=seed),
        backend=workload.backend,
        max_workers=MAX_WORKERS,
        seed=seed,
    )

