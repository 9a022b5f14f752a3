"""FlexLedger's own tests, at tiny sizes.

Run from the repository root: ``python3 -m pytest flexledger -q``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

import run
import workloads
from workloads import WORKLOADS, Size

TINY = Size(fabric_packets=60, churn_duration_s=2.0, probe_tenants=3)
SEED = run.SEEDS["default"]
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs():
    return {name: workload.inputs(SEED, TINY) for name, workload in WORKLOADS.items()}


def _metrics(result: dict) -> dict:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_benchmark_json_names_every_metric_and_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["paths"] == [pathlib.Path(__file__).parent.name]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_reports_every_metric_with_its_unit(name, inputs):
    out = run.end_to_end(WORKLOADS[name], inputs[name], TINY, seconds=0)
    result = out["result"]
    assert result["correct"], out["detail"]["problems"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert _metrics(result) == run.END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert set(out["detail"]["host"]) == {
        "cpu_count", "affinity", "python", "repeats", "calibration_s"
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_changes_no_output(name, inputs):
    out = run.per_layer(WORKLOADS[name], inputs[name], seconds=0)
    result = out["result"]
    assert result["correct"], out["detail"]["problems"]
    assert _metrics(result) == run.PER_LAYER
    values = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert values["device.visits"] > 0
    assert values["network.arrivals"] == values["device.visits"]
    if name == "churn":
        assert values["reconfig.updates"] == len(inputs[name].events)
        assert values["device.transition_visits"] > 0
    else:
        assert values["reconfig.updates"] == 0
    assert (values["shard.windows"] > 0) == (name == "fabric-2shard")


def test_sharded_report_equals_single_process_report(inputs):
    fabric = workloads.run_sample(WORKLOADS["fabric"], inputs["fabric"])
    sharded = workloads.run_sample(WORKLOADS["fabric-2shard"], inputs["fabric-2shard"])
    assert sharded.output == fabric.output
    assert sharded.output == workloads.oracle(WORKLOADS["fabric-2shard"], inputs["fabric"])


def test_perturbed_report_counts_every_operation_as_failed(inputs):
    workload = WORKLOADS["churn"]
    expected = workloads.oracle(workload, inputs["churn"])
    sample = workloads.run_sample(workload, inputs["churn"])
    tally = run.Tally()
    assert tally.check(sample, expected, "clean")
    assert tally.failed == 0
    report = json.loads(sample.output)
    report["traffic"]["metrics"]["delivered"] -= 1
    perturbed = dataclasses.replace(sample, output=workloads.canon(report))
    assert not tally.check(perturbed, expected, "perturbed")
    assert tally.failed == perturbed.attempted
    assert tally.attempted == 2 * sample.attempted
    assert tally.problems


def test_sample_that_raises_counts_as_failed(inputs):
    def broken():
        raise RuntimeError("boom")

    tally = run.Tally()
    assert run.guarded(tally, inputs["fabric"], "", "broken", broken) is None
    assert tally.failed == tally.attempted == inputs["fabric"].packet_count


def test_same_seed_same_inputs_and_named_seeds():
    first = workloads.churn_inputs(run.resolve_seed("held-out"), TINY)
    again = workloads.churn_inputs(run.SEEDS["held-out"], TINY)
    assert first.packets_blob == again.packets_blob
    assert first.events == again.events
    assert run.resolve_seed("17") == 17
