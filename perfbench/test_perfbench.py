"""Self-test of the benchmark at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_json(workloads.ROOT / "BENCHMARK.json")


def _tiny_run(name: str, trace: int) -> list:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", name,
            "--seed", "7",
            "--seconds", "0",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return completed.stdout.splitlines()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_prints_every_named_metric_with_its_unit(name):
    lines = _tiny_run(name, 0)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {key: value["unit"] for key, value in result["metrics"].items()}
    assert units == {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert all(run.UNITS[key] == unit for key, unit in units.items())
    for key, unit in run.UNITS.items():
        assert any(line.split()[:1] == [key] and line.split()[-1] == unit for line in lines), key

    traced = json.loads(_tiny_run(name, 1)[-1])
    assert traced["correct"]
    units = {key: value["unit"] for key, value in traced["metrics"].items()}
    assert units == {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}


def test_a_wrong_pinned_fingerprint_is_reported_as_a_failure():
    outcome = run.run_benchmark("ref", 7, 0, False, tiny=True, pins={"ref": {"7": "0" * 64}})
    pinned = [record for record in outcome["reps"] if record["seed"] == 7]
    assert pinned and all(record["failures"] for record in pinned)
    assert not outcome["correct"]
    assert outcome["failed"] == sum(record["submitted"] for record in pinned)
    assert outcome["summary"]["fail_frac"] > 0


def test_trace_wrappers_are_removed_afterwards():
    originals = {
        (owner, attribute): vars(owner)[attribute] for _, owner, attribute in tracing.targets()
    }
    recorder = tracing.Recorder("self-test")
    with tracing.traced(recorder):
        assert tracing.wrapped_count() == len(originals)
        traced = rep.measure("ref", 7, trace=False, tiny=True)
    recorded = len(recorder.spans)
    assert recorded > 0
    assert tracing.wrapped_count() == 0
    assert all(vars(owner)[attribute] is fn for (owner, attribute), fn in originals.items())

    plain = rep.measure("ref", 7, trace=False, tiny=True)
    assert len(recorder.spans) == recorded
    assert plain["fingerprint"] == traced["fingerprint"]


def test_rescaling_divides_each_phase_by_the_probes_around_it():
    reference = hostspeed.REFERENCE_S
    assert hostspeed.rescale([1.0, 2.0], [reference] * 3) == pytest.approx(3.0)
    # Phase one ran at half speed, phase two between half and full speed.
    slow = [2 * reference, 2 * reference, reference]
    assert hostspeed.rescale([1.0, 2.0], slow) == pytest.approx(0.5 + 2.0 / 1.5)
    with pytest.raises(ValueError):
        hostspeed.rescale([1.0], [reference])


def test_the_probe_leaves_the_cpu_affinity_as_it_found_it():
    cpus = os.sched_getaffinity(0)
    assert hostspeed.probe() > 0
    assert os.sched_getaffinity(0) == cpus
