"""The repository benchmark: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload ref --seed 7 --seconds 32 --trace 0

Workloads are defined in ``perfbench/workloads.py`` and explained, with the
pinned fingerprints and the layer predictions, in ``perfbench/design.json``.
Each repetition runs in a fresh interpreter (``perfbench/rep.py``) on one of
the run's input instances.  Repetitions start until ``--seconds`` have
passed, and untraced runs measure every instance at least once.  With
``--trace 1`` each instance runs untraced and then traced: the untraced
repetitions give the wall time the trace overhead is measured against, the
traced ones the per-layer metrics.

Every repetition passes the correctness gate or counts all its transfers as
failed: per-shard Definition 1 and conservation, full settlement, every
submission committed and matched to its due time, the pinned fingerprint of
(workload, instance) where one is pinned, one fingerprint per instance across
repetitions, traced or not, and on the process backend the serial backend's
fingerprint for the same instance.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (transfers) and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``wall_s`` and ``audited_tps`` are means over the run's
instances of the median over each instance's repetitions, other timings
medians over repetitions, all of times rescaled to the host's full speed
(``hostspeed.py``: the host's speed swings by up to ~2x for minutes at a
time, so raw medians move with it; they are printed beside); simulated-time
figures are pooled over the run's instances.  Run every workload
with ``for w in ref ref-process deep-local; do python3 perfbench/run.py
--workload $w --seed 7 --seconds 32 --trace 0; done``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REP_TIMEOUT_S = 170
# Every end-to-end figure a run prints, with its unit.
UNITS = {
    "wall_s": "s",
    "audited_tps": "transfers/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "sim_ms",
    "latency_p99_ms": "sim_ms",
    "msgs_per_commit": "msg/commit",
    "settle_p95_ms": "sim_ms",
    "fail_frac": "fraction",
}


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_rep(name: str, seed: int, trace: bool, tiny: bool, reference: bool) -> dict:
    """One repetition in a fresh interpreter; a crash is returned as a record."""
    command = [sys.executable, str(HERE / "rep.py"), "--workload", name, "--seed", str(seed)]
    command += ["--trace"] * trace + ["--tiny"] * tiny + ["--reference"] * reference
    process = subprocess.Popen(
        command,
        cwd=workloads.ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        out, err = process.communicate()
    lines = out.strip().splitlines()
    if process.returncode == 0 and lines:
        return json.loads(lines[-1])
    return {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "crashed": f"exit {process.returncode}: {err.strip().splitlines()[-1:] or ''}",
    }


def gate(rep: dict, first: dict, pins: dict, reference) -> list:
    """Reasons ``rep`` fails the correctness gate (empty when it passes).

    ``first`` maps each instance seed to the first fingerprint measured for
    it; ``pins`` maps instance seeds to pinned fingerprints.
    """
    if "crashed" in rep:
        return [rep["crashed"]]
    fingerprint = rep["fingerprint"]
    reasons = [check for check, ok in rep["checks"].items() if not ok]
    pinned = pins.get(str(rep["seed"]))
    if pinned is not None and fingerprint != pinned:
        reasons.append(f"fingerprint {fingerprint[:12]} != pinned {pinned[:12]}")
    if fingerprint != first[rep["seed"]]:
        reasons.append(f"fingerprint {fingerprint[:12]} differs between repetitions")
    if reference is not None and fingerprint != reference:
        reasons.append(f"fingerprint {fingerprint[:12]} != serial backend {reference[:12]}")
    return reasons


def percentile(ordered: list, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def per_instance(reps: list, value) -> float:
    """Mean over the run's instances of the median of ``value`` over each
    instance's repetitions, so every instance weighs the same however many
    repetitions the run gave it."""
    values = defaultdict(list)
    for rep in reps:
        values[rep["seed"]].append(value(rep))
    return statistics.fmean(statistics.median(group) for group in values.values())


def simulated_metrics(reps: list) -> dict:
    """Simulated-time figures pooled over the first repetition of each instance."""
    firsts = {}
    for rep in reps:
        firsts.setdefault(rep["seed"], rep)
    latencies = sorted(x for rep in firsts.values() for x in rep["latencies_ms"])
    committed = sum(rep["committed"] for rep in firsts.values())
    return {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": percentile(latencies, 0.99),
        "msgs_per_commit": sum(rep["messages"] for rep in firsts.values()) / committed,
        "settle_p95_ms": statistics.median(rep["settle_p95_ms"] for rep in firsts.values()),
        "latency_samples": len(latencies),
        "instances": len(firsts),
    }


def run_benchmark(name, seed, seconds, trace, tiny=False, pins=None) -> dict:
    """Measure one workload; returns the per-repetition records and the summary.

    Untraced, repetitions cycle through the run's instances.  Traced, each
    instance runs untraced and then traced, and the pairs cycle.
    """
    workload = workloads.WORKLOADS[name]
    if pins is None:
        pins = {} if tiny else load_json(workloads.DESIGN)["fingerprints"]
    pins = pins.get(name, {})
    instances = workloads.instance_seeds(workload, seed, tiny)
    minimum = 2 if trace else len(instances)
    reps = []
    started = time.monotonic()
    while len(reps) < minimum or time.monotonic() - started < seconds:
        traced = trace and len(reps) % 2 == 1
        index = len(reps) // 2 if trace else len(reps)
        instance = instances[index % len(instances)]
        # On another backend, the first repetition of each instance also
        # fingerprints the serial backend, after its measurement.
        reference = workload.backend != "serial" and index < len(instances) and not traced
        reps.append(run_rep(name, instance, traced, tiny, reference))
    first = {}
    references = {}
    for rep in reps:
        if "fingerprint" in rep:
            first.setdefault(rep["seed"], rep["fingerprint"])
        if "reference_fingerprint" in rep:
            references[rep["seed"]] = rep["reference_fingerprint"]
    attempted = failed = 0
    for rep in reps:
        reference = None
        if workload.backend != "serial":
            reference = references.get(rep["seed"], "no serial reference")
        rep["failures"] = gate(rep, first, pins, reference)
        count = workloads.TINY_SUBMISSIONS if tiny else workload.submissions
        submitted = rep.get("submitted", count)
        attempted += submitted
        failed += submitted if rep["failures"] else 0
    measured = [rep for rep in reps if "crashed" not in rep]
    plain = [rep for rep in measured if not rep["traced"]]
    traced = [rep for rep in measured if rep["traced"]]
    summary = {}
    raw = {}
    if plain:
        summary = {
            "wall_s": per_instance(plain, lambda rep: rep["wall_s"]),
            "audited_tps": per_instance(
                plain, lambda rep: (0 if rep["failures"] else rep["committed"]) / rep["wall_s"]
            ),
            "setup_s": statistics.median(rep["setup_s"] for rep in plain),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
            **simulated_metrics(plain),
        }
        raw = {
            "raw_wall_s": statistics.median(rep["raw_wall_s"] for rep in plain),
            "raw_setup_s": statistics.median(rep["raw_setup_s"] for rep in plain),
            "host.slowdown": statistics.median(rep["host_slowdown"] for rep in plain),
        }
    summary["fail_frac"] = failed / attempted
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(rep["layers"][key] for rep in traced)
        layers["host.slowdown"] = statistics.median(rep["host_slowdown"] for rep in traced)
        if plain:
            layers["trace.overhead_frac"] = (
                per_instance(traced, lambda rep: rep["wall_s"]) / summary["wall_s"] - 1.0
            )
    return {
        "workload": name,
        "seed": seed,
        "pins": pins,
        "reps": reps,
        "summary": summary,
        "raw": raw,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
    }


def report(outcome: dict) -> None:
    """The human-readable lines: every repetition, then every metric with its unit."""
    print(f"workload {outcome['workload']} seed {outcome['seed']}")
    for index, rep in enumerate(outcome["reps"]):
        status = "FAILED: " + "; ".join(rep["failures"]) if rep["failures"] else "ok"
        if "crashed" in rep:
            print(f"  rep {index}: {status}")
            continue
        pinned = "pinned" if str(rep["seed"]) in outcome["pins"] else "unpinned"
        if "reference_fingerprint" in rep:
            pinned += f", serial {rep['reference_fingerprint'][:12]}"
        print(
            f"  rep {index}{' traced' if rep['traced'] else ''} instance {rep['seed']}: "
            f"wall {rep['wall_s']:.3f} s at full speed (raw {rep['raw_wall_s']:.3f}: setup "
            f"{rep['raw_setup_s']:.3f}, run {rep['run_s']:.3f}, audit {rep['audit_s']:.3f}; "
            f"host slowdown {rep['host_slowdown']:.2f}) rss {rep['peak_rss_mb']:.1f} MB "
            f"fingerprint {rep['fingerprint'][:12]} ({pinned}) {status}"
        )
    summary = dict(outcome["summary"])
    samples = summary.pop("latency_samples", 0)
    instances = summary.pop("instances", 0)
    for key, value in summary.items():
        print(f"  {key:<16} {value:>14.6g} {UNITS[key]}")
    if samples:
        print(f"  (latencies pooled over {instances} instances, {samples} samples)")
    if outcome["raw"]:
        print("  (not rescaled: " + ", ".join(f"{k} {v:.6g}" for k, v in outcome["raw"].items()) + ")")
    for key, value in outcome["layers"].items():
        print(f"  {key:<40} {value:>14.6g}")
    print(f"  correct {outcome['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="the self-test's small inputs")
    args = parser.parse_args(argv)
    spec = load_json(workloads.ROOT / "BENCHMARK.json")
    workloads.import_program()

    outcome = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    report(outcome)
    values = outcome["summary"]
    if args.trace:
        # The settlement p95 is 0 where nothing settles, so it rides with the
        # per-layer metrics rather than the never-zero end-to-end ones.
        values = {key: values[key] for key in ("settle_p95_ms",) if key in values}
        values.update(outcome["layers"])
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        if entry["name"] not in values:
            print(f"perfbench: metric {entry['name']} was not measured", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
