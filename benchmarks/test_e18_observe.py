"""E18 — FlexScope observability overhead and fidelity.

Observability is only deployable if it is (a) free when off and (b)
cheap when on. This experiment runs the E2 workload — base
infrastructure with the firewall delta injected mid-traffic — three
ways:

* **disabled** — the FlexScope façade exists but is never enabled
  (the shipping default; every packet runs compiled);
* **traced 1/64** — tracing, metrics, and profiling on at the default
  1-in-64 packet sampling rate, which must cost **≤ 10%** of the
  disabled run's packets/second;
* **traced 1/1** — every packet traced (informational; not gated).

The gate reads a paired median. Disabled and traced 1/64 run back to
back for ``PAIRS`` pairs, alternating which goes first; each pair gives
one overhead ratio, and the median of those must be ≤ 10%. A best-of-N
per arm would compare runs taken many seconds apart, so host drift
would read as tracing cost.

Fidelity is asserted alongside cost: every traced run must report the
exact same traffic outcome as the disabled runs (sampling reroutes a
packet through the interpreter, never changes its fate), every
reconfiguration window must be reconstructable from the span tree, and
all traced 1/64 runs must export byte-identical metrics and spans.

The run writes ``BENCH_e18.json`` at the repo root (CI's bench-smoke
reads it) in addition to the bench_tables.txt row.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

from benchmarks.harness import fmt, print_table

from repro.apps import base_infrastructure, firewall_delta
from repro.core.flexnet import FlexNet
from repro.runtime.consistency import ConsistencyLevel
from repro.simulator.packet import reset_packet_ids

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e18.json"

RATE_PPS = 2000
DURATION_S = 10.0
UPDATE_AT_S = 5.0
LEVEL = ConsistencyLevel.PER_PACKET_PATH
MAX_OVERHEAD = 0.10  # traced 1/64 may cost at most 10% of disabled pps
PAIRS = 16  # alternating disabled/traced pairs; the gate reads their median


def workload_run(sample_every: int | None):
    """One E2 run; ``sample_every=None`` leaves FlexScope disabled.
    Returns ``(net, traffic_report, wall_pps)``."""
    reset_packet_ids()  # identical cut-over draws across variants
    net = FlexNet.standard()
    if sample_every is not None:
        net.observe.enable(sample_every=sample_every)
    net.install(base_infrastructure())
    delta = firewall_delta()
    net.schedule(UPDATE_AT_S, lambda: net.update(delta, consistency=LEVEL))
    start = time.perf_counter()
    report = net.run_traffic(
        rate_pps=RATE_PPS, duration_s=DURATION_S, consistency_level=LEVEL,
        extra_time_s=2.0,
    )
    elapsed = time.perf_counter() - start
    return net, report, report.metrics.sent / elapsed


def paired_runs():
    """Run disabled and traced 1/64 back to back ``PAIRS`` times,
    alternating which arm goes first, so host drift shifts both runs of
    a pair alike and their ratio cancels it. Returns each arm's pps
    list, every run's traffic outcome, the first traced net, and every
    traced run's span and metric exports (wall-clock profiler columns
    are excluded from both by design)."""
    pps = {None: [], 64: []}
    outcomes, exports = [], []
    traced_net = None
    for index in range(PAIRS):
        for sample_every in (None, 64) if index % 2 == 0 else (64, None):
            net, report, run_pps = workload_run(sample_every)
            pps[sample_every].append(run_pps)
            outcomes.append(report.metrics.to_dict())
            if sample_every is not None:
                exports.append(
                    (net.observe.tracer.to_dict(), net.observe.metrics.to_prometheus())
                )
                traced_net = traced_net or net
    return pps[None], pps[64], outcomes, traced_net, exports


def run_experiment() -> dict:
    disabled, traced, outcomes, traced_net, exports = paired_runs()
    full_net, full_report, full_pps = workload_run(1)
    overheads = [d / t - 1.0 for d, t in zip(disabled, traced)]

    # Fidelity: tracing must not perturb the simulation.
    outcome = outcomes[0]
    assert all(other == outcome for other in outcomes)
    assert full_report.metrics.to_dict() == outcome

    # Every reconfig window is reconstructable from the span tree.
    windows = traced_net.observe.tracer.spans(kind="window")
    updates = traced_net.observe.tracer.spans(kind="update")

    # Determinism: every traced run exports byte-identical spans and
    # metrics.
    spans_match = all(spans == exports[0][0] for spans, _ in exports)
    metrics_match = all(metrics == exports[0][1] for _, metrics in exports)

    disabled_pps = statistics.median(disabled)
    return {
        "rate_pps": RATE_PPS,
        "duration_s": DURATION_S,
        "pairs": len(overheads),
        "sent": outcome["sent"],
        "disabled_pps": disabled_pps,
        "traced_pps": statistics.median(traced),
        "full_trace_pps": full_pps,
        "overhead_1_in_64": statistics.median(overheads),
        "overhead_1_in_64_min": min(overheads),
        "overhead_1_in_64_max": max(overheads),
        "overhead_1_in_1": disabled_pps / full_pps - 1.0,
        "spans": traced_net.observe.tracer.total_spans,
        "spans_full": full_net.observe.tracer.total_spans,
        "windows": len(windows),
        "updates": len(updates),
        "outcomes_identical": True,
        "spans_deterministic": spans_match,
        "metrics_deterministic": metrics_match,
    }


def test_e18_observe(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_table(
        f"E18: FlexScope overhead on the E2 workload "
        f"({RATE_PPS} pps, {DURATION_S:.0f}s, firewall delta at t={UPDATE_AT_S:.0f}s)",
        ["mode", "pps (wall)", "overhead", "spans"],
        [
            ["disabled", fmt(results["disabled_pps"], 4), "—", 0],
            [
                "traced 1/64",
                fmt(results["traced_pps"], 4),
                f"{results['overhead_1_in_64'] * 100:+.1f}% "
                f"(median of {results['pairs']} pairs, "
                f"{results['overhead_1_in_64_min'] * 100:+.1f}%.."
                f"{results['overhead_1_in_64_max'] * 100:+.1f}%)",
                results["spans"],
            ],
            [
                "traced 1/1",
                fmt(results["full_trace_pps"], 4),
                f"{results['overhead_1_in_1'] * 100:+.1f}%",
                results["spans_full"],
            ],
        ],
    )

    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    # The gate: default-rate tracing costs at most 10% of throughput,
    # as the median over alternating pairs.
    assert results["overhead_1_in_64"] <= MAX_OVERHEAD, results["overhead_1_in_64"]
    # The update produced a real, reconstructable transition.
    assert results["updates"] == 1
    assert results["windows"] >= 1
    # Same-scenario runs export byte-identical observability.
    assert results["spans_deterministic"]
    assert results["metrics_deterministic"]
