"""FlexLedger: the wall-clock benchmark of FlexNet.

Usage (from the repository root)::

    python3 flexledger/run.py --workload fabric --seed 2024 --seconds 20 --trace 0

Runs one workload (``fabric``, ``fabric-2shard`` or ``churn``; see
``workloads.py``) on inputs generated from ``--seed``, repeating fresh
samples until ``--seconds`` have passed, and checks every sample against
the interpreter oracle. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the host block and every per-sample value.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced sample and then traced samples (``spans.py``) and reports the
per-layer metrics, after checking that tracing changed no output byte
and that every count repeats exactly across traced samples.

``--seed`` takes an integer or one of the names in ``SEEDS``: check a
claim on ``held-out`` after writing a change against ``default``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Inputs, Sample, Size, Workload  # noqa: E402

SEEDS = {"default": 2024, "held-out": 7919}

#: Run at least this many samples even when ``--seconds`` ran out.
MIN_SAMPLES = 2
#: Update probes per run on the fabric workloads (100 updates each).
PROBE_ROUNDS = 2
#: Extra set-ups measured per run: ``setup_s`` is the median of these
#: and of every sample's own set-up.
SETUP_REPEATS = 30

END_TO_END = {
    "pps": "1/s",
    "setup_s": "s",
    "reconfig_p50_ms": "ms",
    "reconfig_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run: name -> unit. Units ``count``,
#: ``ratio``, ``packets`` and ``sim_s`` are deterministic and must repeat
#: exactly; ``s`` and ``1/s`` are host measurements.
PER_LAYER = {
    "setup.build_s": "s",
    "setup.install_s": "s",
    "engine.events": "count",
    "engine.self_s": "s",
    "network.arrivals": "count",
    "network.self_s": "s",
    "device.visits": "count",
    "device.self_s": "s",
    "device.transition_visits": "count",
    "device.queue_drops": "count",
    "device.max_queue_depth": "packets",
    "exec.interp_calls": "count",
    "exec.interp_s": "s",
    "exec.ops": "count",
    "exec.compiled_calls": "count",
    "exec.compiled_s": "s",
    "exec.compiles": "count",
    "exec.compile_s": "s",
    "flowcache.lookups": "count",
    "flowcache.hit_ratio": "ratio",
    "flowcache.s": "s",
    "batch.packets": "count",
    "batch.memo_hit_ratio": "ratio",
    "batch.s": "s",
    "tables.lookups": "count",
    "tables.lookup_s": "s",
    "hash.calls": "count",
    "hash.s": "s",
    "telemetry.ingests": "count",
    "telemetry.s": "s",
    "reconfig.updates": "count",
    "reconfig.failed": "count",
    "reconfig.s": "s",
    "compose.calls": "count",
    "compose.tenant_admits": "count",
    "compose.s": "s",
    "placement.compiles": "count",
    "placement.feasibility_checks": "count",
    "placement.s": "s",
    "reconfig.apply_s": "s",
    "reconfig.windows": "count",
    "reconfig.sim_window_s": "sim_s",
    "shard.plan_s": "s",
    "shard.windows": "count",
    "shard.handoffs": "count",
    "shard.events": "count",
    "shard.cpu_max_s": "s",
    "shard.cpu_sum_s": "s",
    "shard.wait_frac": "share",
    "trace.untraced_pps": "1/s",
    "trace.pps": "1/s",
    "trace.slowdown": "x",
}
DETERMINISTIC_UNITS = ("count", "ratio", "packets", "sim_s")


def resolve_seed(text: str) -> int:
    return SEEDS[text] if text in SEEDS else int(text)


def host_block(repeats: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "repeats": repeats,
        # tells a slow host from a slow change; measurement only
        "calibration_s": hostclock.calibrate(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest forked
    child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


class Tally:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"flexledger: {message}", file=sys.stderr)

    def check(self, sample: Sample, expected: str, label: str) -> bool:
        """Count a sample's operations; all of them fail if its output
        differs from ``expected``."""
        self.attempted += sample.attempted
        if sample.output != expected:
            self.failed += sample.attempted
            self.fail(f"{label}: output differs from the interpreter oracle")
            return False
        self.failed += sample.lost + sample.failed_updates
        return True


def guarded(tally: Tally, inputs: Inputs, expected: str, label: str, run) -> Sample | None:
    """Run one sample; a sample that raises counts all its operations
    as failed."""
    try:
        sample = run()
    except Exception:  # noqa: BLE001 - one failed sample must not stop the run
        tally.attempted += inputs.packet_count + len(inputs.events)
        tally.failed += inputs.packet_count + len(inputs.events)
        tally.fail(f"{label} raised:\n{traceback.format_exc()}")
        return None
    tally.check(sample, expected, label)
    return sample


def end_to_end(workload: Workload, inputs: Inputs, size: Size, seconds: float) -> dict:
    tally = Tally()
    expected = workloads.oracle(workload, inputs)
    probe_expected = None if workload.live_updates else workloads.probe_oracle(workload, size)
    updates: list[tuple[float, float]] = []
    setups: list[tuple[float, float]] = []
    samples: list[Sample] = []
    with HostClock() as clock:
        # The first run in a process is slower (heap growth, first
        # fork); it is checked but not timed.
        guarded(
            tally, inputs, expected, "warm-up", lambda: workloads.run_sample(workload, inputs)
        )
        if probe_expected is not None:
            for _ in range(PROBE_ROUNDS):
                probe = workloads.reconfig_probe(workload.setup(), size.probe_tenants)
                tally.check(probe, probe_expected, "update probe")
                updates.extend(probe.updates)
        for _ in range(SETUP_REPEATS):
            setups.append(workloads.timed_setup(workload.setup)[1])
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
            sample = guarded(
                tally,
                inputs,
                expected,
                f"sample {len(samples)}",
                lambda: workloads.run_sample(workload, inputs),
            )
            if sample is None:
                break
            samples.append(sample)
            setups.append(sample.setup)
            if workload.live_updates:
                updates.extend(sample.updates)
    pps = [sample.packets / clock.normalise(sample.traffic) for sample in samples]
    setup_s = [clock.normalise(window) for window in setups]
    latencies = [clock.normalise(window) for window in updates]
    metrics = {
        "pps": statistics.median(pps) if pps else 0.0,
        "setup_s": statistics.median(setup_s),
        "reconfig_p50_ms": percentile(latencies, 0.5) * 1e3 if latencies else 0.0,
        "reconfig_p90_ms": percentile(latencies, 0.9) * 1e3 if latencies else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "samples": len(samples),
        "updates": len(updates),
        "pps": pps,
        "pps_wall": [sample.pps for sample in samples],
        "setup_s": setup_s,
        "burst_s": [clock.burst_s(*sample.traffic) for sample in samples],
    }
    return finish(tally, metrics, END_TO_END, detail, len(samples))


def layer_metrics(tracer, sample: Sample, install_s: float) -> dict:
    counts, times = tracer.counts, tracer.times
    shards = sample.shard_results
    cpu = [result.cpu_s for result in shards if result.cpu_s is not None]
    batch_total = counts["batch.memo_hits"] + counts["batch.memo_misses"]
    lookups = counts["flowcache.lookups"]
    values = {
        "setup.build_s": sample.setup_s - install_s,
        "setup.install_s": install_s,
        "flowcache.hit_ratio": counts["flowcache.hits"] / lookups if lookups else 0.0,
        "batch.memo_hit_ratio": counts["batch.memo_hits"] / batch_total if batch_total else 0.0,
        "shard.windows": sum(result.windows for result in shards),
        "shard.handoffs": sum(result.handoffs_out for result in shards),
        "shard.events": sum(result.events_executed for result in shards),
        "shard.cpu_max_s": max(cpu, default=0.0),
        "shard.cpu_sum_s": sum(cpu),
        "shard.wait_frac": 1.0 - max(cpu) / sample.traffic_s if cpu else 0.0,
    }
    for name, unit in PER_LAYER.items():
        if name not in values and not name.startswith("trace."):
            values[name] = times[name] if unit == "s" else counts[name]
    return values


def traced_sample(tracer, workload: Workload, inputs: Inputs) -> Sample:
    tracer.reset()
    net, window = workloads.timed_setup(workload.setup)
    sample = Sample(packets=inputs.packet_count, setup=window)
    install_s = tracer.times["setup.install_s"]
    tracer.reset()
    workload.run(net, inputs, sample)
    for result in sample.shard_results:
        tracer.merge(getattr(result, "ledger", {"counts": {}, "times": {}}))
    sample.layers = layer_metrics(tracer, sample, install_s)
    return sample


def per_layer(workload: Workload, inputs: Inputs, seconds: float) -> dict:
    tally = Tally()
    expected = workloads.oracle(workload, inputs)
    untraced = guarded(
        tally, inputs, expected, "untraced sample", lambda: workloads.run_sample(workload, inputs)
    )
    tracer = Tracer()
    tracer.install()
    traced: list[Sample] = []
    try:
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_SAMPLES or time.perf_counter() < deadline:
            sample = guarded(
                tally,
                inputs,
                expected,
                f"traced sample {len(traced)}",
                lambda: traced_sample(tracer, workload, inputs),
            )
            if sample is None:
                break
            traced.append(sample)
    finally:
        tracer.uninstall()
    metrics = {name: 0.0 for name in PER_LAYER}
    if untraced is not None and traced:
        if any(sample.output != untraced.output for sample in traced):
            tally.fail("traced output differs from the untraced output")
        deterministic = [
            {n: v for n, v in sample.layers.items() if PER_LAYER[n] in DETERMINISTIC_UNITS}
            for sample in traced
        ]
        if any(counts != deterministic[0] for counts in deterministic):
            tally.fail("per-layer counts differ between traced samples")
        for name, unit in PER_LAYER.items():
            if unit in DETERMINISTIC_UNITS:
                metrics[name] = deterministic[0][name]
            elif not name.startswith("trace."):
                metrics[name] = statistics.median(sample.layers[name] for sample in traced)
        metrics["trace.pps"] = statistics.median(sample.pps for sample in traced)
        metrics["trace.untraced_pps"] = untraced.pps
        metrics["trace.slowdown"] = untraced.pps / metrics["trace.pps"]
    detail = {"samples": len(traced), "traced": [sample.layers for sample in traced]}
    return finish(tally, metrics, PER_LAYER, detail, len(traced))


def finish(tally: Tally, metrics: dict, units: dict, detail: dict, repeats: int) -> dict:
    detail["host"] = host_block(repeats)
    detail["problems"] = tally.problems
    return {
        "detail": detail,
        "result": {
            "correct": not tally.problems and tally.failed == 0 and repeats > 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in units
            },
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", default="default", help="integer or one of " + ", ".join(SEEDS))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    size = Size()
    inputs = workload.inputs(resolve_seed(args.seed), size)
    if args.trace:
        out = per_layer(workload, inputs, args.seconds)
    else:
        out = end_to_end(workload, inputs, size, args.seconds)
    out["detail"].update(workload=workload.name, seed=inputs.seed, trace=args.trace)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
