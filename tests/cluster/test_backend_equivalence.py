"""The cross-backend equivalence harness.

The execution backends' headline guarantee is that parallelism can never
silently change protocol behaviour: for any configuration, the
:class:`~repro.cluster.result.ClusterResult` captured by a run — every
replica's per-account balances, the committed and settlement streams with
their completion times, the supply-audit verdicts and the event/message
counts — must be **byte-for-byte identical** across
``SerialBackend`` / ``ProcessPoolBackend``.  This module
asserts exactly that, over a seed × shards × batch × cross-shard-fraction
grid, via :meth:`ClusterResult.fingerprint` (canonical JSON + SHA-256) *and*
field-level payload equality (so a fingerprint regression pinpoints the
diverging field, not just "something differed").

It also pins the supporting contracts: worker-count independence (a
two-worker process pool equals the serial reference — the CI smoke), the
coincidence of the epoch-serial backend with the classic shared clock when no
settlement traffic exists, picklability of everything that crosses a process
boundary, and the worker loop itself (driven in-process through a scripted
pipe, so the subprocess code path is unit-tested and covered).
"""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.cluster import ClusterSystem, ShardSpec
from repro.cluster.backends import (
    BACKEND_NAMES,
    WorkerLost,
    _worker_main,
    codec_decode,
    codec_encode,
    make_backend,
)
from repro.cluster.settlement import (
    SettlementCertificate,
    SettlementClaim,
    SettlementVoucher,
)
from repro.common.errors import ConfigurationError
from repro.crypto.signatures import SignatureScheme
from repro.workloads.cluster_driver import (
    ClusterWorkloadConfig,
    RoutedSubmission,
    cluster_open_loop_workload,
    partition_submissions,
)

# The equivalence grid: 2 seeds x 2 shard counts x 2 batch sizes x 2
# cross-shard mixes = 16 configurations, each run on both backends.
SEEDS = (3, 11)
SHARD_COUNTS = (2, 3)
BATCH_SIZES = (1, 4)
FRACTIONS = (0.5, 1.0)
GRID = [
    (seed, shards, batch, fraction)
    for seed in SEEDS
    for shards in SHARD_COUNTS
    for batch in BATCH_SIZES
    for fraction in FRACTIONS
]


def _run(
    fast_network,
    backend,
    seed,
    shards,
    batch,
    fraction,
    max_workers=None,
    epoch_policy=None,
):
    system = ClusterSystem(
        shard_count=shards,
        replicas_per_shard=4,
        batch_size=batch,
        broadcast="bracha",
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        epoch_policy=epoch_policy,
        max_workers=max_workers,
        seed=seed,
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=60,
            aggregate_rate=1_500.0,
            duration=0.02,
            zipf_skew=1.0,
            cross_shard_fraction=fraction,
            router=system.router if fraction is not None else None,
            seed=seed,
        )
    )
    system.schedule_submissions(workload)
    result = system.run()
    return system, result


class TestBackendEquivalence:
    """Serial / Process produce byte-identical ClusterResults."""

    @pytest.mark.parametrize("seed,shards,batch,fraction", GRID)
    def test_fingerprints_identical_across_backends(
        self, fast_network, seed, shards, batch, fraction
    ):
        payloads = {}
        fingerprints = {}
        for backend in BACKEND_NAMES:
            system, result = _run(fast_network, backend, seed, shards, batch, fraction)
            try:
                payloads[backend] = result.comparable_payload()
                fingerprints[backend] = result.fingerprint()
                # The runs must also be *audited* equal, not just equal:
                # every backend passes Definition 1 and conserves supply.
                report = system.check_definition1()
                assert report.ok, (backend, report.violations)
                assert result.audit["conserved"], (backend, result.audit)
                assert result.audit["fully_settled"], (backend, result.audit)
            finally:
                system.close()
        # Field-level equality first, so a regression names the field...
        assert payloads["serial"] == payloads["process"]
        # ... and the canonical-byte equality the guarantee is stated in.
        assert fingerprints["serial"] == fingerprints["process"]

    def test_settlement_actually_exercised_by_the_grid(self, fast_network):
        """The equivalence grid must not vacuously pass on settlement-free
        runs: every configuration produces cross-shard traffic, mints — and,
        with the lifecycle on by default, acknowledged retirements."""
        for seed, shards, batch, fraction in GRID:
            system, result = _run(fast_network, "serial", seed, shards, batch, fraction)
            try:
                assert system.cross_shard_submissions > 0
                assert result.settlement_stream
                assert result.audit["minted"] > 0
                assert result.retirement_stream
                assert result.retired_records > 0
            finally:
                system.close()

    def test_adaptive_epoch_with_compaction_fingerprints_identical(
        self, fast_network
    ):
        """The acceptance configuration: an AdaptiveEpochPolicy grid with the
        compaction lifecycle active, fingerprint-identical (retirement
        counters included) across both backends."""
        from repro.cluster import AdaptiveEpochPolicy

        def policy():
            # A fresh instance per run: equality must come from determinism,
            # never from shared mutable state (the policy is stateless, this
            # proves nothing leaks through it either way).
            return AdaptiveEpochPolicy(
                initial_epoch=0.005, min_epoch=0.00125, max_epoch=0.02,
                widen_below=2, narrow_above=12,
            )

        payloads = {}
        fingerprints = {}
        for backend in BACKEND_NAMES:
            system, result = _run(
                fast_network, backend, 11, 3, 4, 1.0, epoch_policy=policy()
            )
            try:
                payloads[backend] = result.comparable_payload()
                fingerprints[backend] = result.fingerprint()
                assert result.retired_records > 0
                assert result.resident_settlement_records == 0
                assert result.audit["fully_settled"]
                assert result.audit["retirement_backed"]
                report = system.check_definition1()
                assert report.ok, (backend, report.violations)
            finally:
                system.close()
        assert payloads["serial"] == payloads["process"]
        assert fingerprints["serial"] == fingerprints["process"]

    def test_two_worker_process_pool_matches_serial(self, fast_network):
        """Worker assignment affects only where a shard's deterministic event
        sequence is computed: 3 shards on 2 workers equal the serial run."""
        serial_system, serial = _run(fast_network, "serial", 11, 3, 1, 0.7)
        process_system, process = _run(
            fast_network, "process", 11, 3, 1, 0.7, max_workers=2
        )
        try:
            assert process.comparable_payload() == serial.comparable_payload()
            assert process.fingerprint() == serial.fingerprint()
        finally:
            serial_system.close()
            process_system.close()

    def test_epoch_serial_matches_shared_clock_without_settlement_traffic(
        self, fast_network
    ):
        """With zero cross-shard payments the barriers exchange nothing, and
        the extracted SerialBackend reproduces the classic shared-clock run
        exactly — committed stream, balances and duration."""
        shared_system, shared = _run(fast_network, None, 7, 2, 1, 0.0)
        serial_system, serial = _run(fast_network, "serial", 7, 2, 1, 0.0)
        try:
            assert shared.committed_stream == serial.committed_stream
            assert shared.balances == serial.balances
            assert shared.duration == serial.duration
            assert shared.settlement_stream == serial.settlement_stream == []
        finally:
            shared_system.close()
            serial_system.close()


class TestBackendConfiguration:
    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=2, backend="gpu")
        with pytest.raises(ConfigurationError):
            make_backend("gpu")

    def test_submissions_are_rejected_once_the_session_executes(self, fast_network):
        system, _ = _run(fast_network, "serial", 3, 2, 1, 0.5)
        try:
            with pytest.raises(ConfigurationError):
                system.schedule_submissions([])
        finally:
            system.close()

    def test_shared_mode_is_the_default(self, fast_network):
        system = ClusterSystem(shard_count=2, network_config=fast_network)
        assert system.backend_name == "shared"
        assert system.scheduler is None
        assert all(shard.simulator is system.simulator for shard in system.shards)
        system.close()  # no backend resources; must be a safe no-op

    def test_epoch_mode_gives_every_shard_its_own_clock(self, fast_network):
        system = ClusterSystem(shard_count=3, network_config=fast_network, backend="serial")
        clocks = {id(shard.simulator) for shard in system.shards}
        assert len(clocks) == 3
        assert id(system.simulator) not in clocks
        system.close()


class TestEpochSchedulerEdges:
    def test_run_until_caps_the_barrier_horizon(self, fast_network):
        """A horizon mid-workload stops the barriers without losing events:
        resuming the run completes and still matches an uncapped run."""
        capped = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="serial", seed=3,
        )
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60, aggregate_rate=1_500.0, duration=0.02,
                cross_shard_fraction=0.5, router=capped.router, seed=3,
            )
        )
        capped.schedule_submissions(workload)
        partial = capped.run(until=0.01)
        assert partial.duration <= 0.01
        resumed = capped.run()  # picks up where the horizon stopped
        capped.close()
        reference_system, reference = _run(fast_network, "serial", 3, 2, 1, 0.5)
        reference_system.close()
        assert resumed.committed_stream == reference.committed_stream
        assert resumed.balances == reference.balances

    def test_event_budget_is_enforced_across_epochs(self, fast_network):
        from repro.common.errors import SimulationError

        system = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="serial", seed=3,
        )
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60, aggregate_rate=1_500.0, duration=0.02,
                cross_shard_fraction=0.5, router=system.router, seed=3,
            )
        )
        system.schedule_submissions(workload)
        with pytest.raises(SimulationError):
            system.run(max_events=50)
        system.close()

    def test_delayed_vouchers_settle_at_a_later_barrier(self, fast_network):
        """A DelayBehavior stalls one replica's vouchers past several epochs;
        settlement still completes (the other replicas quorum first) and the
        late vouchers are absorbed without effect."""
        from repro.byzantine.behaviors import DelayBehavior

        system, result = _run(fast_network, "serial", 3, 2, 1, 1.0)
        baseline_minted = result.audit["minted"]
        system.close()
        delayed = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="serial", seed=3,
        )
        delayed.settlement.set_voucher_behavior(0, 3, DelayBehavior(extra_delay=0.05))
        delayed.settlement.set_voucher_behavior(1, 3, DelayBehavior(extra_delay=0.05))
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60, aggregate_rate=1_500.0, duration=0.02,
                cross_shard_fraction=1.0, router=delayed.router, seed=3,
            )
        )
        delayed.schedule_submissions(workload)
        outcome = delayed.run()
        assert outcome.audit["minted"] == baseline_minted
        assert outcome.audit["fully_settled"]
        assert delayed.check_definition1().ok
        delayed.close()

    def test_epoch_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=2, backend="serial", epoch=0.0)

    def test_snapshot_restore_rejects_the_wrong_shard(self, fast_network):
        system = ClusterSystem(
            shard_count=2, network_config=fast_network, backend="serial", seed=3
        )
        snapshot = system.shards[0].snapshot()
        with pytest.raises(ConfigurationError):
            system.shards[1].restore(snapshot)
        system.close()


class TestSettlementWireFormatPicklability:
    """Everything that crosses a process boundary must pickle losslessly.

    Claims and certificates are clock-independent (no timestamps), so a
    value pickled in one epoch verifies unchanged in any other process at
    any later barrier.
    """

    def _claim(self):
        return SettlementClaim(
            source_shard=0, destination_shard=1, issuer=2, sequence=5, account="3", amount=42
        )

    def test_claim_voucher_certificate_round_trip(self):
        scheme = SignatureScheme(seed=9)
        claim = self._claim()
        voucher = SettlementVoucher(claim=claim, signature=scheme.keypair_for(1).sign(claim))
        certificate = SettlementCertificate(
            claim=claim,
            certificate=scheme.make_certificate(
                claim, tuple(scheme.keypair_for(pid).sign(claim) for pid in range(3))
            ),
        )
        for value in (claim, voucher, certificate):
            clone = pickle.loads(pickle.dumps(value))
            assert clone == value
        # A pickled certificate still verifies: the signatures bind to the
        # claim's content, not to any in-process identity.
        clone = pickle.loads(pickle.dumps(certificate))
        assert scheme.verify_certificate(
            clone.claim, clone.certificate, quorum_size=3,
            allowed_signers=frozenset(range(4)),
        )

    def test_spec_and_submission_round_trip(self, fast_network):
        spec = ShardSpec(index=1, replicas=4, initial_balance=100,
                         network_config=fast_network, seed=17)
        assert pickle.loads(pickle.dumps(spec)) == spec
        routed = RoutedSubmission(time=0.25, issuer=2, destination="x1:0", amount=9)
        assert pickle.loads(pickle.dumps(routed)) == routed


class _ScriptedPipe:
    """An in-process stand-in for one end of a worker pipe."""

    def __init__(self, commands):
        self._commands = list(commands)
        self.responses = []
        self.closed = False

    def recv_bytes(self):
        if not self._commands:
            raise EOFError
        # Scripted commands round-trip through the same framing the
        # driver uses on the real pipe.
        return codec_encode(self._commands.pop(0))

    def send_bytes(self, payload):
        self.responses.append(codec_decode(payload))

    def close(self):
        self.closed = True


class TestWorkerLoop:
    """Drive the process-pool worker's command loop in-process.

    The loop normally runs in a subprocess (invisible to coverage and hard
    to fail deliberately); a scripted pipe exercises every command — and the
    error path — right here.
    """

    def _spec_and_submissions(self, fast_network):
        spec = ShardSpec(index=0, replicas=4, initial_balance=100,
                         network_config=fast_network, seed=5)
        submissions = {0: [RoutedSubmission(time=0.001, issuer=0, destination="1", amount=7)]}
        return spec, submissions

    def test_advance_mint_snapshot_stop(self, fast_network):
        spec, submissions = self._spec_and_submissions(fast_network)
        pipe = _ScriptedPipe(
            [
                ("advance", 1.0, None),
                ("mint", 1.0, []),
                ("snapshot",),
                ("stop",),
            ]
        )
        _worker_main(pipe, [spec], submissions)
        statuses = [status for status, _ in pipe.responses]
        assert statuses == ["ok", "ok", "ok", "ok"]
        reports = pipe.responses[0][1]
        assert reports[0].pending_events == 0
        assert reports[0].processed_events > 0
        snapshot = pipe.responses[2][1][0]
        # The scheduled transfer committed inside the worker loop.
        assert len(snapshot.committed) == 1
        assert snapshot.committed[0].transfer.amount == 7
        assert pipe.closed

    def test_unknown_and_failing_commands_report_errors(self, fast_network):
        spec, submissions = self._spec_and_submissions(fast_network)
        pipe = _ScriptedPipe(
            [
                ("warp", 9),
                ("advance", 1.0, 1),  # event budget of 1 must blow up
                ("stop",),
            ]
        )
        _worker_main(pipe, [spec], submissions)
        statuses = [status for status, _ in pipe.responses]
        assert statuses == ["error", "error", "ok"]
        assert "unknown worker command" in pipe.responses[0][1]
        assert "event budget" in pipe.responses[1][1]

    def test_eof_terminates_the_loop(self, fast_network):
        spec, submissions = self._spec_and_submissions(fast_network)
        pipe = _ScriptedPipe([])  # recv raises EOFError immediately
        _worker_main(pipe, [spec], submissions)
        assert pipe.responses == []
        assert pipe.closed

    def test_a_driver_that_hung_up_ends_the_loop(self, fast_network):
        spec, submissions = self._spec_and_submissions(fast_network)
        pipe = _ScriptedPipe([("snapshot",), ("snapshot",)])

        def hung_up(payload):
            raise BrokenPipeError

        pipe.send_bytes = hung_up
        _worker_main(pipe, [spec], submissions)
        assert pipe.closed
        assert len(pipe._commands) == 1  # the second command was never read


def _paused_process_session(fast_network):
    """A two-worker process-pool session paused mid-run, with its workers."""
    system = ClusterSystem(
        shard_count=3,
        replicas_per_shard=4,
        initial_balance=500,
        network_config=fast_network,
        backend="process",
        max_workers=2,
        seed=11,
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=60,
            aggregate_rate=1_500.0,
            duration=0.02,
            cross_shard_fraction=1.0,
            router=system.router,
            seed=11,
        )
    )
    system.schedule_submissions(workload)
    before = set(multiprocessing.active_children())
    system.run(until=0.01)
    workers = [p for p in multiprocessing.active_children() if p not in before]
    return system, workers


def _kill(workers, slot):
    (victim,) = [p for p in workers if p.name == f"shard-worker-{slot}"]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=5.0)
    assert not victim.is_alive()
    return victim


class TestWorkerLost:
    def test_a_killed_worker_is_named_and_the_session_still_closes(self, fast_network):
        system, workers = _paused_process_session(fast_network)
        paused_at = system.scheduler.now
        victim = _kill(workers, 1)
        with pytest.raises(WorkerLost) as caught:
            system.run()
        lost = caught.value
        assert lost.slot == 1
        assert lost.pid == victim.pid
        assert lost.exitcode == -signal.SIGKILL
        assert lost.shards == system.placement.shards_on(1) == [1]
        assert lost.horizon == paused_at
        assert f"pid {victim.pid}" in str(lost)
        started = time.perf_counter()
        system.close()
        assert time.perf_counter() - started < 5.0
        assert len(workers) == 2
        assert not any(worker.is_alive() for worker in workers)

    def test_a_lost_session_stays_lost(self, fast_network):
        system, workers = _paused_process_session(fast_network)
        _kill(workers, 1)
        try:
            for _ in range(2):
                # No recovery: every later drive names the same worker
                # instead of hanging on the dead pipe.
                with pytest.raises(WorkerLost) as caught:
                    system.run()
                assert caught.value.slot == 1
        finally:
            system.close()
            system.close()  # idempotent after a loss
        assert not any(worker.is_alive() for worker in workers)

    def test_a_failed_worker_command_names_the_worker(self, fast_network):
        from repro.common.errors import SimulationError
        from repro.common.types import Transfer

        system, workers = _paused_process_session(fast_network)
        paused_at = system.scheduler.now
        (worker,) = [p for p in workers if p.name == "shard-worker-1"]
        credit = Transfer("x0:1", "x1:0", 3, issuer=0, sequence=1)
        try:
            with pytest.raises(SimulationError) as caught:
                # Shard 1 has no replica 99, so the worker's mint raises.
                system._backend.apply_mints(paused_at, {1: [(99, credit)]})
        finally:
            system.close()
        assert not isinstance(caught.value, WorkerLost)
        message = str(caught.value)
        for part in (
            "shard worker 1",
            f"pid {worker.pid}",
            "running 'mint'",
            "resident shards [1]",
            f"last commanded horizon {paused_at}",
            "KeyError: 99",
        ):
            assert part in message

    def test_worker_lost_is_a_named_simulation_error(self):
        from repro import cluster
        from repro.common.errors import SimulationError

        lost = WorkerLost(1, 4242, -9, (1, 2), 0.01)
        assert cluster.WorkerLost is WorkerLost
        assert isinstance(lost, SimulationError)
        assert (lost.slot, lost.pid, lost.exitcode, lost.shards, lost.horizon) == (
            1, 4242, -9, [1, 2], 0.01,
        )
        message = str(lost)
        for part in ("shard worker 1", "pid 4242", "exit code -9", "[1, 2]", "horizon 0.01"):
            assert part in message


class TestPartitionedDriver:
    def test_partition_preserves_order_and_counts_cross_shard(self, fast_network):
        system = ClusterSystem(shard_count=2, network_config=fast_network, seed=11)
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60, aggregate_rate=1_500.0, duration=0.02,
                cross_shard_fraction=0.5, router=system.router, seed=11,
            )
        )
        per_shard, cross = partition_submissions(workload, system.router)
        assert set(per_shard) <= {0, 1}
        assert sum(len(routed) for routed in per_shard.values()) == len(workload)
        expected_cross = sum(
            1 for s in workload
            if system.router.route(s.source_user, s.destination_user).cross_shard
        )
        assert cross == expected_cross > 0
        for routed in per_shard.values():
            times = [submission.time for submission in routed]
            assert times == sorted(times)
