"""One measured run of one workload, in the interpreter this script starts in.

``run.py`` starts this script in a fresh interpreter for every repetition:
the program's module-level memos (canonical encodings, digests) outlive a
``ClusterSystem`` and peak RSS only grows within a process, so a repeat in
the same interpreter would measure what users never see.

Timed region (``wall_s``): the ``ClusterSystem`` constructor, then
``schedule_submissions``, ``run``, ``check_definition1``,
``ClusterResult.fingerprint()`` and ``close()``.  The submission list is made
before it; the workers' peak memory is read between the fingerprint and
``close()`` with the clock paused.  The region is timed in four phases (set-up,
run, audit and fingerprint, close) with a host-speed probe before the first
and after each (``hostspeed.py``, outside the clock); ``wall_s`` and
``setup_s`` are the phases rescaled to the host's full speed, ``raw_wall_s``
and ``raw_setup_s`` the plain wall times.  Prints one JSON object as its last
line.

Usage: python3 perfbench/rep.py --workload ref --seed 7 [--trace] [--tiny] [--reference]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPAN_DIR = workloads.ROOT / ".perfbench_out"


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker processes.

    Each worker's high-water mark is read from ``/proc/<pid>/status``
    (``VmHWM``); pages a forked worker shares with the main process count in both.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
                        break
        except OSError:
            pass
    return kib / 1024.0


def due_time_latencies(submissions, router, result):
    """Latency of every committed transfer from its submission's due time.

    The k-th routed submission of each issuer is matched to that issuer's
    k-th committed transfer by sequence number; the destination and amount
    must agree.  Returns ``(latencies, mismatches)``.
    """
    from repro.workloads.cluster_driver import partition_submissions

    per_shard, _ = partition_submissions(submissions, router)
    latencies = []
    mismatches = 0
    for shard_index, shard_result in enumerate(result.shard_results):
        due = defaultdict(list)
        for routed in per_shard.get(shard_index, []):
            due[routed.issuer].append(routed)
        done = defaultdict(list)
        for record in shard_result.committed:
            if record.success:
                done[record.transfer.issuer].append(record)
        for issuer in due.keys() | done.keys():
            records = sorted(done[issuer], key=lambda record: record.transfer.sequence)
            mismatches += abs(len(records) - len(due[issuer]))
            for routed, record in zip(due[issuer], records):
                transfer = record.transfer
                if (transfer.destination, transfer.amount) != (routed.destination, routed.amount):
                    mismatches += 1
                latencies.append(record.completed_at - routed.time)
    return latencies, mismatches


def measure(name: str, seed: int, trace: bool, tiny: bool = False, reference: bool = False) -> dict:
    """Run workload ``name`` on the inputs of instance ``seed``; return its record."""
    workload = workloads.WORKLOADS[name]
    subs = workloads.submissions(workload, seed, tiny)
    kwargs = workloads.system_kwargs(workload, seed)
    from repro.cluster import ClusterSystem, ShardRouter

    recorder = tracing.Recorder(f"{name}/{seed}/{os.getpid()}") if trace else None
    probes = [hostspeed.probe()]
    with tracing.traced(recorder) if trace else contextlib.nullcontext():
        started = time.perf_counter()
        system = ClusterSystem(**kwargs)
        system.schedule_submissions(subs)
        scheduled = time.perf_counter()
        probes.append(hostspeed.probe())
        run_started = time.perf_counter()
        result = system.run(max_events=workloads.MAX_EVENTS)
        ran = time.perf_counter()
        probes.append(hostspeed.probe())
        audit_started = time.perf_counter()
        check = system.check_definition1()
        audited = time.perf_counter()
        fingerprint = result.fingerprint()
        paused = time.perf_counter()
        peak_rss_mb = _peak_rss_mb()
        probes.append(hostspeed.probe())
        resumed = time.perf_counter()
        system.close()
        finished = time.perf_counter()
    probes.append(hostspeed.probe())
    phases = [scheduled - started, ran - run_started, paused - audit_started, finished - resumed]
    raw_wall_s = sum(phases)

    router = ShardRouter(workload.shards, workloads.REPLICAS, salt=seed)
    latencies, mismatches = due_time_latencies(subs, router, result)
    committed = result.committed_count
    conservation = check.conservation
    checks = {
        "definition1_and_conservation": check.ok,
        "fully_settled": conservation is not None and conservation.fully_settled,
        "all_committed": committed == len(subs) and not result.rejected,
        "due_times_matched": mismatches == 0 and len(latencies) == len(subs),
    }
    record = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "fingerprint": fingerprint,
        "submitted": len(subs),
        "committed": committed,
        "checks": checks,
        "violations": check.violations[:5],
        "wall_s": hostspeed.rescale(phases, probes),
        "setup_s": hostspeed.rescale(phases[:1], probes[:2]),
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": phases[0],
        "run_s": phases[1],
        "audit_s": audited - audit_started,
        "host_slowdown": statistics.fmean(probes) / hostspeed.REFERENCE_S,
        "peak_rss_mb": peak_rss_mb,
        "messages": result.messages_sent,
        "settle_p95_ms": system.settlement.settlement_latency_p95() * 1000.0,
        "latencies_ms": [latency * 1000.0 for latency in latencies],
    }
    if recorder is not None:
        record["layers"] = tracing.layer_metrics(recorder, system, check, raw_wall_s)
        SPAN_DIR.mkdir(exist_ok=True)
        recorder.write(SPAN_DIR / f"spans-{name}-seed{seed}.jsonl")
    if reference:
        # Backend invariance: the serial backend on the same inputs, after the
        # measurement so that it warms nothing the measurement used.
        serial = ClusterSystem(**{**kwargs, "backend": "serial"})
        serial.schedule_submissions(subs)
        record["reference_fingerprint"] = serial.run(max_events=workloads.MAX_EVENTS).fingerprint()
        serial.close()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument(
        "--reference", action="store_true", help="also fingerprint the serial backend"
    )
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.trace, args.tiny, args.reference)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
