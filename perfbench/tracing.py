"""Outside-in per-layer tracing: spans around the calls into each layer.

The program is not edited.  :func:`traced` replaces each boundary listed in
:data:`BOUNDARIES` with a wrapper that records a span (name, start, end,
parent) into an in-memory :class:`Recorder`, and puts every original back
when it exits, so an untraced run afterwards executes the unwrapped code.

Only the main process records.  Process-pool workers are forked from it and
inherit the wrappers, so the recorder switches itself off in any
forked child; there the wrappers call straight through.  The worker-side
layers of the process backend are seen only through ``backend.advance``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
import weakref
from typing import Callable, Dict, List

BACKENDS = ("ExecutionBackend", "SerialBackend", "ProcessPoolBackend")
SETTLEMENT = "repro.cluster.settlement"
MP = "repro.mp.consensusless_transfer"
# (span name, module, classes in the module or None for module functions,
# attribute names).  A call nested directly in a span of the same name (a
# super() chain) is folded into that span by the recorder.
BOUNDARIES = (
    ("system.build", "repro.cluster.system", ("ClusterSystem",), ("__init__",)),
    ("system.schedule", "repro.cluster.system", ("ClusterSystem",), ("schedule_submissions",)),
    ("system.run", "repro.cluster.system", ("ClusterSystem",), ("run",)),
    ("system.audit", "repro.cluster.system", ("ClusterSystem",), ("check_definition1",)),
    ("system.supply_audit", "repro.cluster.system", ("ClusterSystem",), ("supply_audit",)),
    ("system.fingerprint", "repro.cluster.result", ("ClusterResult",), ("fingerprint",)),
    ("system.close", "repro.cluster.system", ("ClusterSystem",), ("close",)),
    ("backend.open", "repro.cluster.backends", BACKENDS, ("open",)),
    (
        "backend.advance",
        "repro.cluster.backends",
        BACKENDS,
        ("advance", "begin_advance", "collect_advance"),
    ),
    ("backend.apply_mints", "repro.cluster.backends", BACKENDS, ("apply_mints",)),
    ("backend.apply_retirements", "repro.cluster.backends", BACKENDS, ("apply_retirements",)),
    ("backend.finalize", "repro.cluster.backends", BACKENDS, ("finalize",)),
    # The main process's side of the codec, under the names the backends call it by.
    ("codec.encode", "repro.cluster.backends", None, ("codec_encode",)),
    ("codec.decode", "repro.cluster.backends", None, ("codec_decode",)),
    ("settlement.submit_voucher", SETTLEMENT, ("SettlementRelay",), ("submit_voucher",)),
    ("settlement.submit_ack", SETTLEMENT, ("SettlementRelay",), ("submit_ack",)),
    ("settlement.inbox_receive", SETTLEMENT, ("SettlementInbox",), ("receive",)),
    ("settlement.gate_receive", SETTLEMENT, ("CompactionGate",), ("receive",)),
    ("crypto.sign", "repro.crypto.signatures", ("KeyPair",), ("sign",)),
    ("crypto.verify", "repro.crypto.signatures", ("SignatureScheme",), ("verify",)),
    ("crypto.verify_quorum", "repro.crypto.signatures", ("SignatureScheme",), ("verify_quorum",)),
    ("crypto.certify", "repro.crypto.signatures", ("SignatureScheme",), ("certify",)),
    (
        "crypto.verify_certificate",
        "repro.crypto.signatures",
        ("SignatureScheme",),
        ("verify_certificate",),
    ),
    ("sim.run", "repro.network.simulator", ("Simulator",), ("run",)),
    ("net.transmit", "repro.network.node", ("Network",), ("transmit",)),
    ("bcast.broadcast", "repro.broadcast.bracha", ("BrachaBroadcast",), ("broadcast",)),
    ("bcast.on_message", "repro.broadcast.bracha", ("BrachaBroadcast",), ("on_message",)),
    ("mp.on_message", MP, ("ConsensuslessTransferNode",), ("on_message",)),
    ("mp.submit_transfer", MP, ("ConsensuslessTransferNode",), ("submit_transfer",)),
    # balance_from_transfers, under the names the protocol modules call it by.
    ("core.balance", MP, None, ("balance_from_transfers",)),
    ("core.balance", "repro.cluster.batching", None, ("balance_from_transfers",)),
    ("spec.check", "repro.spec.byzantine_spec", ("ByzantineAssetTransferChecker",), ("check",)),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in BOUNDARIES))


class Recorder:
    """In-memory spans of one traced run, plus counts taken at the boundaries."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = True
        # [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.codec_bytes = 0
        self.fold_records = 0
        self.inbox_mints = 0

    def call(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack
        if not self.active or (stack and self.spans[stack[-1]][0] == name):
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def write(self, path) -> None:
        """Write the spans out, one JSON array per line after a header."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {"run_id": self.run_id, "fields": ["name", "start", "end", "parent"]}
            handle.write(json.dumps(header))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def _wrapper(recorder: Recorder, name: str, fn: Callable) -> Callable:
    if name == "codec.encode":
        def wrapped(*args, **kwargs):
            data = recorder.call(name, fn, args, kwargs)
            if recorder.active:
                recorder.codec_bytes += len(data)
            return data
    elif name == "codec.decode":
        def wrapped(*args, **kwargs):
            if recorder.active:
                recorder.codec_bytes += len(args[0])
            return recorder.call(name, fn, args, kwargs)
    elif name == "core.balance":
        def wrapped(*args, **kwargs):
            if recorder.active:
                recorder.fold_records += len(args[2])
            return recorder.call(name, fn, args, kwargs)
    elif name == "settlement.inbox_receive":
        def wrapped(inbox, *args, **kwargs):
            before = len(inbox.accepted)
            result = recorder.call(name, fn, (inbox,) + args, kwargs)
            if recorder.active:
                recorder.inbox_mints += len(inbox.accepted) - before
            return result
    else:
        def wrapped(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs)
    wrapped.__wrapped__ = fn
    return wrapped


def targets():
    """Every (span name, owner object, attribute) the tracer wraps."""
    for name, module_name, classes, attributes in BOUNDARIES:
        module = importlib.import_module(module_name)
        owners = [module] if classes is None else [getattr(module, cls) for cls in classes]
        for owner in owners:
            for attribute in attributes:
                # Only where the owner defines it, so restoring is exact.
                if attribute in vars(owner):
                    yield name, owner, attribute


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Wrap every boundary for the duration of the block, then unwrap."""
    ref = weakref.ref(recorder)

    def silence_child() -> None:
        alive = ref()
        if alive is not None:
            alive.active = False

    os.register_at_fork(after_in_child=silence_child)
    originals = []
    try:
        for name, owner, attribute in targets():
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrapper(recorder, name, original))
        yield recorder
    finally:
        recorder.active = False
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def wrapped_count() -> int:
    """How many boundaries currently carry a tracing wrapper (0 when clean)."""
    return sum(
        1
        for _, owner, attribute in targets()
        if hasattr(vars(owner)[attribute], "__wrapped__")
    )


def layer_metrics(recorder: Recorder, system, check, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run (all but the overhead, which needs
    an untraced run to compare with)."""
    result = system.result
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
    inclusive: Dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    own: Dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    advance_ms: List[float] = []
    top_level = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        inclusive[name] += duration
        own[name] += duration - child_time[index]
        if parent < 0:
            top_level += duration
        if name == "backend.advance":
            advance_ms.append(duration * 1000.0)
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = inclusive[name]
        metrics[f"{name}.self_s"] = own[name]
    counters = (result.telemetry or {}).get("totals", {}).get("counters", {})
    verifies = ("sig.verify", "sig.verify_quorum", "sig.verify_certificate")
    verify_calls = sum(counters.get(key, 0) for key in verifies)
    verify_hits = sum(counters.get(f"{key}_cached", 0) for key in verifies)
    checked = check.checked_transfers
    metrics.update(
        {
            "backend.barriers": counters.get("scheduler.barriers", 0),
            "backend.advance_ms.p50": statistics.median(advance_ms) if advance_ms else 0.0,
            # Too few barriers on the reference runs for a percentile with
            # ten samples beyond it, so the tail is the slowest barrier.
            "backend.advance_ms.tail": max(advance_ms, default=0.0),
            "codec.bytes": recorder.codec_bytes,
            "settlement.mint_ratio": _ratio(
                recorder.inbox_mints, calls["settlement.inbox_receive"]
            ),
            "crypto.verify_cache_hit_ratio": _ratio(verify_hits, verify_calls),
            "sim.events": result.events_processed,
            "sim.events_per_s": _ratio(result.events_processed, inclusive["sim.run"]),
            "bcast.items_per_instance": _ratio(
                system.payload_items(), system.broadcast_instances()
            ),
            "core.balance.fold_len": _ratio(recorder.fold_records, calls["core.balance"]),
            "spec.checked_transfers": checked,
            "spec.us_per_checked_transfer": _ratio(inclusive["spec.check"] * 1e6, checked),
            "trace.coverage": _ratio(top_level, wall_s),
        }
    )
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
