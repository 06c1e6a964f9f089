"""How fast the host runs Python right now, from a fixed reference computation.

On the shared 2-CPU Xeon virtual machine the baseline was measured on, speed
switches between full speed and phases up to ~2x slower, for milliseconds or
for minutes at a time, independently on each CPU; the guest sees no steal
time.  A raw wall time there moves with the phase more than with the program.

``probe()`` times a fixed pure-Python workload of the same kind as the
program's (tuples, dicts, SHA-256 digests, small objects, a keyed sort) on
the CPU the caller runs on and on each CPU it may run on.  ``rep.py`` probes
before and after every phase of its timed region and rescales each phase's
wall time by ``REFERENCE_S`` over the mean of the two probes around it, which
gives the time the phase takes with the host at full speed.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

# The probe's time on the baseline's 2-CPU Xeon at full speed (about the
# fastest observed there); rescaled times are seconds at that speed.
REFERENCE_S = 0.0055
# Probe runs per CPU; each run takes ~5-12 ms.
RUNS = 3


class _Record:
    __slots__ = ("index", "digest", "key")

    def __init__(self, index, digest, key):
        self.index = index
        self.digest = digest
        self.key = key


def _workload(count: int = 3_000) -> float:
    started = time.perf_counter()
    table = {}
    records = []
    for index in range(count):
        key = ("acct", index % 977, index)
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        table[key] = digest
        records.append(_Record(index, digest, key))
    total = 0
    for record in records:
        total += len(table[record.key]) + record.index
    records.sort(key=lambda record: record.digest)
    return time.perf_counter() - started


def _median_run() -> float:
    return statistics.median(_workload() for _ in range(RUNS))


def probe() -> float:
    """Seconds the reference workload takes now: the mean of its median time
    where the caller runs and its mean median time over the allowed CPUs."""
    here = _median_run()
    cpus = sorted(os.sched_getaffinity(0))
    pinned = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            pinned.append(_median_run())
    finally:
        os.sched_setaffinity(0, cpus)
    return (here + statistics.fmean(pinned)) / 2


def rescale(phases, probes) -> float:
    """Full-speed seconds of ``phases`` (wall seconds), where ``probes`` holds
    one probe before the first phase and one after each phase."""
    if len(probes) != len(phases) + 1:
        raise ValueError("need one probe before the first phase and one after each")
    return sum(
        seconds * REFERENCE_S * 2 / (probes[index] + probes[index + 1])
        for index, seconds in enumerate(phases)
    )
