"""The worker pipe's wire format: pickle protocol 5.

Driver and workers exchange every command and reply through
``codec_encode`` / ``codec_decode`` in :mod:`repro.cluster.backends`.  The
properties that matter are exactness — a framed value decodes to an equal
value of the same type *and* keeps its container iteration order, because
the fingerprint reads reprs downstream — and a byte count that depends on
the value alone (``encoded_size``, the length of the memo-free
``value_bytes``), because it is the migration and checkpoint bytes gauge on
every backend.
"""

import dataclasses
import pickle

import pytest

from repro.broadcast.messages import (
    AccountTaggedPayload,
    EchoMessage,
    EchoSignatureMessage,
    FinalMessage,
    ReadyMessage,
    SendMessage,
)
from repro.broadcast.secure_broadcast import BroadcastDelivery
from repro.cluster import ClusterSystem
from repro.cluster.backends import (
    codec_decode,
    codec_encode,
    encoded_size,
    value_bytes,
)
from repro.cluster.batching import BatchAnnouncement
from repro.cluster.checkpoint import checkpoint_delta
from repro.cluster.settlement import (
    RetirementCertificate,
    SettlementAck,
    SettlementAckClaim,
    SettlementCertificate,
    SettlementClaim,
    SettlementVoucher,
)
from repro.cluster.shard import AdvanceReport, ShardSpec, ValidationEvent
from repro.common.types import Transfer, TransferId
from repro.crypto.signatures import SignatureScheme
from repro.mp.messages import TransferAnnouncement
from repro.network.node import NetworkConfig, NodeStats
from repro.workloads.cluster_driver import (
    ClusterWorkloadConfig,
    RoutedSubmission,
    cluster_open_loop_workload,
)


def roundtrip(value):
    data = codec_encode(value)
    result = codec_decode(data)
    assert result == value
    assert type(result) is type(value)
    return result


def _assert_same_order(original, restored):
    """Walk two equal values: every dict keeps its key order, and every set
    iterates as the original's items re-inserted in their iteration order."""
    if isinstance(original, dict):
        assert list(restored) == list(original)
        for key in original:
            _assert_same_order(original[key], restored[key])
    elif isinstance(original, (set, frozenset)):
        assert list(restored) == list(type(original)(list(original)))
    elif isinstance(original, (list, tuple)):
        for item, twin in zip(original, restored):
            _assert_same_order(item, twin)
    elif dataclasses.is_dataclass(original):
        for field in dataclasses.fields(original):
            _assert_same_order(getattr(original, field.name), getattr(restored, field.name))


def _certified(scheme, claim):
    return scheme.make_certificate(claim, [scheme.keypair_for(p).sign(claim) for p in range(3)])


@pytest.fixture(scope="module")
def drained_shard():
    """Shard 0 of a small drained serial run with cross-shard settlement."""
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=4,
        batch_size=2,
        initial_balance=500,
        network_config=NetworkConfig(
            latency_base=0.0002, latency_mean=0.0003, processing_time=0.000002,
            signature_verification_time=0.00002, seed=42,
        ),
        backend="serial",
        seed=7,
    )
    system.schedule_submissions(
        cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=40, aggregate_rate=1_500.0, duration=0.02,
                cross_shard_fraction=0.5, router=system.router, seed=7,
            )
        )
    )
    system.run()
    yield system._backend._shards[0]
    system.close()


class TestScalars:
    def test_none_and_bools(self):
        for value in (None, True, False):
            assert codec_decode(codec_encode(value)) is value

    def test_ints_including_negatives_and_wide(self):
        for value in (0, 1, -1, 127, 128, -128, 2**40, -(2**40), 2**70, -(2**70)):
            roundtrip(value)

    def test_floats_are_exact(self):
        for value in (0.0, -0.0, 1.5, 1e-12, 3.141592653589793, float("inf")):
            assert codec_decode(codec_encode(value)) == value
        assert str(codec_decode(codec_encode(-0.0))) == "-0.0"

    def test_strings_and_bytes(self):
        roundtrip("")
        roundtrip("x1:17")
        roundtrip("ünïcode ✓")
        roundtrip(b"")
        roundtrip(b"\x00\xff" * 7)

    def test_bool_never_collapses_to_int(self):
        assert codec_decode(codec_encode(True)) is True
        assert type(codec_decode(codec_encode(1))) is int


class TestContainers:
    def test_lists_tuples_nested(self):
        roundtrip([1, "two", 3.0, None, [True, (4, 5)]])
        roundtrip(((), (1,), ("a", ("b",))))

    def test_dict_preserves_insertion_order(self):
        assert list(roundtrip({"z": 1, "a": 2, "m": 3})) == ["z", "a", "m"]

    def test_sets_rebuild_by_insertion(self):
        value = {TransferId(issuer=3, sequence=9), TransferId(issuer=1, sequence=2)}
        _assert_same_order(value, roundtrip(value))
        roundtrip(frozenset({1, 2, 3}))

    def test_tuple_keys_in_dicts(self):
        roundtrip({(0, "a"): [1, 2], (1, "b"): []})


class TestShippedTypes:
    def test_transfer_family(self):
        roundtrip(Transfer("a", "b", 5, issuer=0, sequence=1))
        roundtrip(TransferId(issuer=2, sequence=7))
        roundtrip(RoutedSubmission(time=0.25, issuer=2, destination="x1:0", amount=9))

    def test_shard_spec_with_network_config(self):
        roundtrip(
            ShardSpec(
                index=3, replicas=4, initial_balance=10_000, broadcast="bracha",
                batch_size=8, network_config=NetworkConfig(seed=7), relay_final=True,
                seed=42, telemetry=False,
            )
        )

    def test_settlement_certificates_and_vouchers(self):
        scheme = SignatureScheme(seed=5)
        claim = SettlementClaim(
            source_shard=0, destination_shard=1, issuer=2,
            sequence=4, account="x1:2", amount=11,
        )
        roundtrip(SettlementVoucher(claim=claim, signature=scheme.keypair_for(1).sign(claim)))
        restored = roundtrip(
            SettlementCertificate(claim=claim, certificate=_certified(scheme, claim))
        )
        assert scheme.verify_certificate(claim, restored.certificate, quorum_size=3)

    def test_acks_and_retirement_certificates(self):
        scheme = SignatureScheme(seed=5)
        claim = SettlementAckClaim(0, 1, 2, 4)
        roundtrip(claim)
        roundtrip(SettlementAck(claim=claim, signature=scheme.keypair_for(0).sign(claim)))
        restored = roundtrip(
            RetirementCertificate(claim=claim, certificate=_certified(scheme, claim))
        )
        assert scheme.verify_certificate(claim, restored.certificate, quorum_size=3)

    def test_advance_report_with_events(self):
        roundtrip(
            AdvanceReport(
                shard=1,
                events=[
                    ValidationEvent(
                        time=0.01, shard=1, replica=0,
                        transfer=Transfer("0", "x1:3", 5, issuer=0, sequence=1), index=0,
                    )
                ],
                pending_events=3,
                next_event_time=0.0125,
                processed_events=140,
                now=0.01,
            )
        )

    def test_node_stats(self):
        roundtrip(NodeStats(sent=4, received=9, processed=9, dropped=0, busy_time=0.25))

    def test_broadcast_envelopes(self):
        scheme = SignatureScheme(seed=5)
        payload = ("batch", 1, 2)
        for envelope in (
            SendMessage(channel="xfer", origin=0, sequence=1, payload=payload),
            EchoMessage(channel="xfer", origin=0, sequence=1, payload=payload),
            ReadyMessage(channel="xfer", origin=0, sequence=1, payload=payload),
            EchoSignatureMessage(
                channel="xfer", origin=0, sequence=1, payload=payload,
                signature=scheme.keypair_for(2).sign(payload),
            ),
            AccountTaggedPayload(account="x1:2", account_sequence=4, body=payload),
            BroadcastDelivery(origin=0, sequence=1, payload=payload),
        ):
            roundtrip(envelope)
        final = FinalMessage(
            channel="xfer", origin=0, sequence=1, payload=payload,
            certificate=_certified(scheme, payload),
        )
        restored = roundtrip(final)
        assert scheme.verify_certificate(payload, restored.certificate, quorum_size=3)

    def test_batch_announcement_keeps_its_memoised_count(self):
        batch = BatchAnnouncement(
            tuple(
                TransferAnnouncement(Transfer("0", "1", 1, issuer=0, sequence=s))
                for s in (1, 2, 3)
            )
        )
        assert roundtrip(batch).item_count == 3

    def test_shard_snapshot_from_a_real_run(self, drained_shard):
        snapshot = drained_shard.snapshot()
        _assert_same_order(snapshot, roundtrip(snapshot))

    def test_checkpoint_delta_from_a_real_run(self, drained_shard):
        taken = drained_shard.checkpoint()
        assert taken is not None, drained_shard.checkpoint_blockers()
        delta = checkpoint_delta(None, taken)
        _assert_same_order(delta, roundtrip(delta))
        _assert_same_order(taken, roundtrip(taken))


class TestFrames:
    def test_worker_command_frames(self):
        for command in (
            ("advance", 0.005, None),
            ("mint", 0.005, [(0, [(1, Transfer("x0:1", "1", 3, issuer=1, sequence=2))])]),
            ("retire", 0.005, [(1, [Transfer("x1:0", "2", 4, issuer=0, sequence=3)])]),
            ("evict", [0, 2]),
            ("checkpoint",),
            ("snapshot",),
            ("profile",),
            ("stop",),
        ):
            roundtrip(command)

    def test_reply_frames(self):
        roundtrip(("ok", None))
        roundtrip(("ok", {0: None, 2: [1, 2]}))
        roundtrip(("error", "Traceback (most recent call last):\n  KeyError: 9\n"))

    def test_frames_are_protocol_5_pickles(self):
        data = codec_encode(("advance", 0.005, None))
        assert data[:2] == pickle.PROTO + bytes([5])
        assert pickle.loads(data) == ("advance", 0.005, None)


class TestEncodedSize:
    def test_size_depends_on_the_value_not_on_sharing(self):
        # Equal values built two ways: one reuses a single transfer and a
        # single account string, the other holds distinct equal copies.  A
        # memoising pickler frames the shared one smaller; the pipe must not.
        account = "".join(["x1:", "17"])
        transfer = Transfer(account, account, 5, issuer=0, sequence=1)
        shared = {"log": [transfer, transfer], "owner": account}
        copies = {
            "log": [
                Transfer("".join(["x1:", "17"]), "".join(["x1:", "17"]), 5, issuer=0, sequence=1),
                Transfer("".join(["x1:", "17"]), "".join(["x1:", "17"]), 5, issuer=0, sequence=1),
            ],
            "owner": "".join(["x1:", "17"]),
        }
        assert shared == copies
        assert len(pickle.dumps(shared, protocol=5)) != len(pickle.dumps(copies, protocol=5))
        assert encoded_size(shared) == encoded_size(copies)
        assert value_bytes(shared) == value_bytes(copies)

    def test_size_is_the_memo_free_pickle_length(self):
        value = {"hist": {str(a): {TransferId(issuer=a, sequence=s) for s in range(4)} for a in range(3)}}
        assert encoded_size(value) == len(value_bytes(value))
        assert pickle.loads(value_bytes(value)) == value
        assert encoded_size(value) > encoded_size({})
