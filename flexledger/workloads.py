"""FlexLedger workloads: seeded inputs, set-up, one run, and the oracle.

Every workload runs on FlexNet's default engine: nothing here calls
``net.engine(...)`` on a measured net, so a change of default shows up
as a measured change. Only the oracle pins the tree-walking
interpreter, the one semantic reference every other route must match.

* ``fabric`` -- the E20 4-pod fabric (``repro.scale.e20_net``) with the
  composed base + firewall + INT + count-min + rate-limit program and
  64-flow Poisson traffic, 14 device visits per packet, one process.
  Bound by program execution; no reconfiguration; few flows, so any
  flow-keyed cache is exercised.
* ``fabric-2shard`` -- the same net, packets and seed through
  ``FlexNet.scale(shards=2, backend="process")``: the only workload on
  which the shard planner, lock-step windows and handoffs do work. Its
  traffic report must equal ``fabric``'s byte for byte.
* ``churn`` -- the 5-hop ``FlexNet.standard()`` slice with
  ``base_infrastructure()``: E12-style tenant extensions arrive at 6/s
  and live 8 s on average (~50 live), beside a light 300 pps Poisson
  load over 8,192 flows, twice the 4,096-entry flow-cache capacity.
  Every update swaps the program under live packets, so transition
  windows, recompiles and cache invalidation are paid here.

The fabric workloads have no updates inside their traffic run, so their
``reconfig_*`` figures come from a fixed update probe on a fresh copy
of the workload's net: admit then evict ``probe_tenants`` tenants, one
synchronous call each, with the transition windows run out in between.
"""

from __future__ import annotations

import gc
import json
import math
import pickle
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.apps.base import STANDARD_HEADERS, base_infrastructure
from repro.core.flexnet import FlexNet
from repro.errors import FlexNetError
from repro.lang import builder as b
from repro.lang.builder import ProgramBuilder
from repro.lang.composition import Permission, TenantSpec
from repro.scale import e20_net, e20_workload
from repro.simulator.flowgen import TenantEvent, poisson_flows
from repro.simulator.packet import packet_id_state, reset_packet_ids, set_packet_id_state

FABRIC_PODS = 4
FABRIC_RATE_PPS = 50_000.0
FABRIC_FLOWS = 64
FABRIC_DRAIN_S = 0.01
SHARDS = 2

CHURN_ARRIVALS_PER_S = 6.0
CHURN_LIFETIME_S = 8.0
CHURN_RATE_PPS = 300.0
CHURN_FLOWS = 8192
CHURN_DRAIN_S = 1.0
GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0
#: first VLAN handed to a tenant; each arrival takes the next one.
CHURN_FIRST_VLAN = 101

#: simulated seconds the probe lets each update's windows run out.
PROBE_GAP_S = 0.5


@dataclass(frozen=True)
class Size:
    """How much work one sample does."""

    fabric_packets: int = 3500
    churn_duration_s: float = 20.0
    probe_tenants: int = 50


@dataclass
class Inputs:
    """Everything a sample needs, generated from the seed before any
    timing starts. Packets are mutated by a run, so each sample takes a
    fresh copy with :meth:`packets`."""

    seed: int
    packets_blob: bytes
    packet_count: int
    #: packet-id allocator state right after generation; restored before
    #: each run so ids minted inside the run repeat exactly.
    next_packet_id: int
    events: list[TenantEvent] = field(default_factory=list)
    tenants: dict[str, tuple[TenantSpec, object]] = field(default_factory=dict)

    def packets(self) -> list:
        return pickle.loads(self.packets_blob)


@dataclass
class Sample:
    """One run of a workload. Host intervals are ``(start, end)``
    ``perf_counter`` pairs, so they can be normalised afterwards."""

    packets: int
    setup: tuple[float, float] = (0.0, 0.0)
    traffic: tuple[float, float] = (0.0, 0.0)
    lost: int = 0
    output: str = ""
    #: one interval per ``admit_tenant`` / ``evict_tenant`` call.
    updates: list[tuple[float, float]] = field(default_factory=list)
    failed_updates: int = 0
    #: FlexScale per-shard results (``fabric-2shard`` only).
    shard_results: list = field(default_factory=list)
    #: per-layer metrics, set on a traced sample.
    layers: dict | None = None

    @property
    def setup_s(self) -> float:
        return self.setup[1] - self.setup[0]

    @property
    def traffic_s(self) -> float:
        return self.traffic[1] - self.traffic[0]

    @property
    def pps(self) -> float:
        return self.packets / self.traffic_s

    @property
    def attempted(self) -> int:
        return self.packets + len(self.updates)


def canon(data) -> str:
    return json.dumps(data, sort_keys=True)


def tenant_extension(name: str):
    """The E12 tenant extension: a per-source hit counter."""
    program = ProgramBuilder(f"{name}_ext", owner=name)
    for header, fields in STANDARD_HEADERS.items():
        program.header(header, **fields)
    program.map("hits", keys=["ipv4.src"], value_type="u32", max_entries=2048)
    program.function(
        "watch",
        [
            b.let("n", "u32", b.map_get("hits", "ipv4.src")),
            b.map_put("hits", "ipv4.src", b.binop("+", "n", 1)),
        ],
    )
    program.apply("watch")
    return program.build()


def _tenant(name: str, vlan: int):
    return TenantSpec(name=name, vlan_id=vlan, permission=Permission()), tenant_extension(name)


# -- inputs ------------------------------------------------------------------


def _inputs(seed: int, packets: list, **extra) -> Inputs:
    return Inputs(
        seed=seed,
        packets_blob=pickle.dumps(packets),
        packet_count=len(packets),
        next_packet_id=packet_id_state(),
        **extra,
    )


def fabric_inputs(seed: int, size: Size) -> Inputs:
    reset_packet_ids()
    packets = e20_workload(
        size.fabric_packets, rate_pps=FABRIC_RATE_PPS, flows=FABRIC_FLOWS, seed=seed
    )
    return _inputs(seed, packets)


def stratified_churn(duration_s: float, seed: int) -> list[TenantEvent]:
    """Tenant arrivals at ``CHURN_ARRIVALS_PER_S`` with exponential
    lifetimes of mean ``CHURN_LIFETIME_S``, like E12's
    ``flowgen.tenant_churn`` but stratified, so the seed moves every
    time but not the amount of work: one arrival in each 1/rate slot at
    a random offset, and lifetime quantiles taken along a golden-ratio
    sequence from a random start, which spreads long and short lives
    evenly over the run. With plain Poisson draws the live tenant-seconds
    of a 20 s run varied by ±20% between seeds, and every update's cost
    grows with the number of live tenants; stratified, by ±2%."""
    rng = random.Random(seed)
    start = rng.random()
    events: list[TenantEvent] = []
    for index in range(int(duration_s * CHURN_ARRIVALS_PER_S)):
        arrival = (index + rng.random()) / CHURN_ARRIVALS_PER_S
        quantile = (start + index * GOLDEN_FRACTION) % 1.0
        departure = arrival - CHURN_LIFETIME_S * math.log(1.0 - quantile)
        name = f"tenant{index + 1}"
        events.append(TenantEvent(time=arrival, kind="arrive", tenant=name))
        if departure < duration_s:
            events.append(TenantEvent(time=departure, kind="depart", tenant=name))
    events.sort(key=lambda event: (event.time, event.kind == "depart"))
    return events


def churn_inputs(seed: int, size: Size) -> Inputs:
    reset_packet_ids()
    duration = size.churn_duration_s
    packets = list(
        poisson_flows(CHURN_RATE_PPS, duration, flow_count=CHURN_FLOWS, seed=seed)
    )
    events = stratified_churn(duration, seed)
    arrivals = [event.tenant for event in events if event.kind == "arrive"]
    tenants = {
        name: _tenant(name, CHURN_FIRST_VLAN + index) for index, name in enumerate(arrivals)
    }
    return _inputs(seed, packets, events=events, tenants=tenants)


# -- set-up --------------------------------------------------------------------


def fabric_setup() -> FlexNet:
    return e20_net(pods=FABRIC_PODS)


def churn_setup() -> FlexNet:
    net = FlexNet.standard()
    net.install(base_infrastructure())
    return net


# -- one run ---------------------------------------------------------------------


def _fresh_packets(inputs: Inputs) -> list:
    packets = inputs.packets()
    set_packet_id_state(inputs.next_packet_id)
    return packets


def fabric_run(net: FlexNet, inputs: Inputs, sample: Sample) -> None:
    packets = _fresh_packets(inputs)
    start = time.perf_counter()
    report = net.run_traffic(packets=packets, extra_time_s=FABRIC_DRAIN_S)
    sample.traffic = (start, time.perf_counter())
    sample.lost = report.metrics.lost_by_infrastructure
    sample.output = canon({"traffic": report.to_dict()})


def sharded_run(net: FlexNet, inputs: Inputs, sample: Sample) -> None:
    packets = _fresh_packets(inputs)
    start = time.perf_counter()
    report = net.scale(
        shards=SHARDS,
        backend="process",
        packets=packets,
        seed=inputs.seed,
        drain_s=FABRIC_DRAIN_S,
    )
    sample.traffic = (start, time.perf_counter())
    sample.lost = report.metrics.lost_by_infrastructure
    sample.output = canon({"traffic": report.traffic_dict()})
    sample.shard_results = report.shard_results


def _timed_update(call, sample: Sample, record: list) -> None:
    """Run one synchronous tenant update and log its host latency and
    outcome (the outcome is read after the run, once its transition
    report has filled in)."""
    start = time.perf_counter()
    try:
        outcome = call()
    except FlexNetError as error:
        sample.updates.append((start, time.perf_counter()))
        sample.failed_updates += 1
        record.append(f"{type(error).__name__}: {error}")
        return
    sample.updates.append((start, time.perf_counter()))
    record.append(outcome)


def _outcomes(record: list) -> list:
    return [entry if isinstance(entry, str) else entry.to_dict() for entry in record]


def churn_run(net: FlexNet, inputs: Inputs, sample: Sample) -> None:
    packets = _fresh_packets(inputs)
    record: list = []

    def handler(event: TenantEvent) -> Callable[[], None]:
        if event.kind == "arrive":
            spec, extension = inputs.tenants[event.tenant]
            return lambda: _timed_update(
                lambda: net.admit_tenant(spec, extension), sample, record
            )
        return lambda: _timed_update(lambda: net.evict_tenant(event.tenant), sample, record)

    for event in inputs.events:
        net.schedule(event.time, handler(event))
    start = time.perf_counter()
    report = net.run_traffic(packets=packets, extra_time_s=CHURN_DRAIN_S)
    sample.traffic = (start, time.perf_counter())
    sample.lost = report.metrics.lost_by_infrastructure
    sample.output = canon(
        {
            "traffic": report.to_dict(),
            "program": net.export_program(),
            "updates": _outcomes(record),
        }
    )


def reconfig_probe(net: FlexNet, tenants: int) -> Sample:
    """The fabric workloads' update probe; see the module docstring."""
    sample = Sample(packets=0)
    record: list = []
    names = [f"probe{index}" for index in range(tenants)]
    calls = [
        (lambda spec=spec, ext=ext: net.admit_tenant(spec, ext))
        for spec, ext in (_tenant(name, CHURN_FIRST_VLAN + i) for i, name in enumerate(names))
    ]
    calls += [(lambda name=name: net.evict_tenant(name)) for name in names]
    for call in calls:
        _timed_update(call, sample, record)
        net.loop.run_until(net.loop.now + PROBE_GAP_S)
    sample.output = canon({"updates": _outcomes(record), "program": net.export_program()})
    return sample


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, Size], Inputs]
    setup: Callable[[], FlexNet]
    run: Callable[[FlexNet, Inputs, Sample], None]
    #: the single-process run the oracle repeats under the interpreter.
    oracle_run: Callable[[FlexNet, Inputs, Sample], None]
    #: True when the updates happen inside the traffic run; otherwise
    #: the update probe supplies the reconfiguration figures.
    live_updates: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fabric",
            fabric_inputs,
            fabric_setup,
            fabric_run,
            fabric_run,
        ),
        Workload(
            "fabric-2shard",
            fabric_inputs,
            fabric_setup,
            sharded_run,
            fabric_run,
        ),
        Workload(
            "churn",
            churn_inputs,
            churn_setup,
            churn_run,
            churn_run,
            live_updates=True,
        ),
    )
}


def timed_setup(setup: Callable[[], FlexNet]) -> tuple[FlexNet, tuple[float, float]]:
    """Build a net from empty to ready-to-inject; return it and the
    host interval. Every set-up starts from the same collector state,
    so one does not pay for the garbage of the run before it."""
    gc.collect()
    start = time.perf_counter()
    net = setup()
    return net, (start, time.perf_counter())


def run_sample(workload: Workload, inputs: Inputs, run=None, setup=None) -> Sample:
    """Set up a fresh net and run the workload once. ``setup`` covers
    an empty FlexNet to ready-to-inject; ``traffic`` only the traffic
    call (``run_traffic`` or ``scale``)."""
    net, window = timed_setup(setup or workload.setup)
    sample = Sample(packets=inputs.packet_count, setup=window)
    (run or workload.run)(net, inputs, sample)
    return sample


def _interpreter(setup: Callable[[], FlexNet]) -> Callable[[], FlexNet]:
    def pinned() -> FlexNet:
        net = setup()
        net.engine(fastpath=False, batch=False)
        return net

    return pinned


def oracle(workload: Workload, inputs: Inputs) -> str:
    """The interpreter's canonical output for these inputs (untimed).
    ``fabric-2shard`` is held to the single-process ``fabric`` report."""
    return run_sample(
        workload, inputs, run=workload.oracle_run, setup=_interpreter(workload.setup)
    ).output


def probe_oracle(workload: Workload, size: Size) -> str:
    return reconfig_probe(_interpreter(workload.setup)(), size.probe_tenants).output
