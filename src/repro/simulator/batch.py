"""FlexBatch: batched struct-of-arrays packet execution behind the
FlexVet batch gate.

FlexPath (:mod:`repro.simulator.fastpath`) compiles a program once and
executes packets one at a time; the per-packet Python overhead — context
set-up, key tuple construction, table lookups, result allocation — caps
the engine in the tens of microseconds per packet. FlexBatch amortizes
that overhead across a :class:`PacketBatch` (a struct-of-arrays buffer:
per-field value columns over many packets), which is only sound for
programs the FlexVet gate admits (:func:`~repro.simulator.fastpath.batch_gate`):
every data-plane map per-flow over a common partition field, and no
meter attached to any hosted table.

Execution is tiered, and every tier reproduces the interpreter's
per-packet outcomes *bit-exactly* (the merge gate is
:func:`batched_differential` at 0 divergences):

* **Memo tier** — for instances whose hosted slice is *cacheable*
  (stateless/read-only, per :mod:`repro.analysis.cacheability`): the
  batch is sub-grouped by the full observation key (the same key the
  FlexPath flow cache uses); one representative per group executes the
  compiled closure while its outcome is captured, and the rest receive
  a vectorized scatter — field/meta updates per packet, table counter
  deltas applied once per group with the group's multiplicity, one
  shared :class:`~repro.simulator.pipeline_exec.ExecutionResult`.
  Memoized outcomes persist across batches under an epoch token; when
  ``TableRules.epoch`` (or a read map's mutation counter) moves, the
  memo is flushed and the run continues bit-exactly on the fresh state.

* **Fallback** — every other batch runs packet-by-packet through the
  normal path, still bit-exact: batch-safe but stateful slices (which
  the memo cannot replay), programs the gate refuses, and batches whose
  admission is revoked live because a meter attached to a hosted table
  (the same disqualifier that bypasses the flow cache).

Batching is a library piece on one :class:`ProgramInstance`; a network
device runs every packet through a single
:meth:`~repro.simulator.pipeline_exec.ProgramInstance.process` call.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.lang import ir
from repro.simulator.packet import Packet

#: Why ``FlexNet.engine(batch=True)`` is refused.
DEVICE_BATCHING_REMOVED = (
    "engine(batch=True) is not supported: a device runs every packet "
    "through one call; batch packets on a single program instance with "
    "ProgramInstance.process_batch (repro.simulator.batch)"
)


class PacketBatch:
    """A struct-of-arrays batch: packets plus their per-packet virtual
    arrival times, with columnar accessors for batched passes."""

    __slots__ = ("packets", "times")

    def __init__(self, packets, times=None, now: float = 0.0):
        self.packets: list[Packet] = list(packets)
        if times is None:
            self.times = [now] * len(self.packets)
        else:
            self.times = list(times)
            if len(self.times) != len(self.packets):
                raise SimulationError(
                    f"batch has {len(self.packets)} packet(s) but "
                    f"{len(self.times)} time(s)"
                )

    @property
    def size(self) -> int:
        return len(self.packets)

    def column(self, header: str, field_name: str) -> list[int]:
        """Raw field values across the batch (0 where absent)."""
        key = (header, field_name)
        return [packet.fields.get(key, 0) for packet in self.packets]

    def meta_column(self, key: str) -> list[int]:
        return [packet.meta.get(key, 0) for packet in self.packets]

    def presence(self, header: str) -> list[bool]:
        """Per-packet header presence bits."""
        return [packet.has_header(header) for packet in self.packets]


@dataclass
class BatchStats:
    """FlexBatch execution counters (the FlexScope batch metrics)."""

    batches: int = 0
    packets: int = 0
    #: observation-key sub-groups formed by the memo tier.
    groups: int = 0
    #: packets served by replaying a memoized outcome.
    memo_hits: int = 0
    #: representative executions that recorded a new outcome.
    memo_misses: int = 0
    #: packets run through the normal per-packet path (stateful slice,
    #: refused or revoked admission).
    fallback_packets: int = 0
    #: batches refused live (meter attached to a hosted table).
    revoked_batches: int = 0
    #: epoch-token moves that flushed the memo mid-run.
    revocations: int = 0
    #: memoized outcomes dropped across those flushes and window resets.
    memo_entries_dropped: int = 0
    #: largest batch observed.
    max_batch_size: int = 0

    @property
    def occupancy(self) -> float:
        """Mean packets per batch — how full the batches actually are."""
        return self.packets / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        return {
            "batches": self.batches,
            "packets": self.packets,
            "groups": self.groups,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "fallback_packets": self.fallback_packets,
            "revoked_batches": self.revoked_batches,
            "revocations": self.revocations,
            "memo_entries_dropped": self.memo_entries_dropped,
            "max_batch_size": self.max_batch_size,
            "occupancy": self.occupancy,
        }

    def summary(self) -> str:
        return (
            f"{self.packets} packet(s) in {self.batches} batch(es) "
            f"(occupancy {self.occupancy:.1f}, {self.groups} group(s)): "
            f"{self.memo_hits} memo hit(s), {self.memo_misses} miss(es), "
            f"{self.fallback_packets} fallback; "
            f"{self.revoked_batches} batch(es) revoked, "
            f"{self.revocations} memo flush(es)"
        )


def _memo_entry(outcome, instance):
    """Pre-resolve one recorded outcome for fast replay: counter deltas
    are bound to their live ``hit_counts`` lists (valid until the epoch
    token moves, which flushes the memo), and one ExecutionResult is
    shared by every replayed packet (results are value-compared, never
    mutated). Returns ``(outcome, hit_ops, miss_ops, shared_result,
    simple)`` where ``simple`` marks outcomes with no absent keys or
    digests, which take a shorter scatter loop."""
    from repro.simulator.pipeline_exec import ExecutionResult

    rules_by_name = instance.rules
    hit_ops = []
    miss_ops = []
    for table_name, hit_deltas, miss_delta in outcome.counters:
        rules = rules_by_name.get(table_name)
        if rules is None:
            continue
        hit_counts = rules.hit_counts
        for position, delta in hit_deltas:
            hit_ops.append((hit_counts, position, delta))
        if miss_delta:
            miss_ops.append((rules, miss_delta))
    shared = ExecutionResult(
        ops=outcome.ops, version=outcome.version, recirculations=outcome.recirculations
    )
    simple = not (outcome.fields_absent or outcome.meta_absent or outcome.digests)
    return (outcome, tuple(hit_ops), tuple(miss_ops), shared, simple)


def _compile_obs_key(binding):
    """Codegen the per-packet observation-key function for the memo
    tier (the FlexPath trick applied to key extraction: one specialized
    function instead of a generic loop over key descriptors).

    The key is ``(tuple(packet.fields), observed field values…, meta
    values…)``. The leading ordered field-key tuple determines the set
    of present fields — a strict refinement of the
    :class:`_CacheBinding` key's per-header presence bits — so packets
    sharing a key are indistinguishable to the hosted slice and the
    memoized outcome replays bit-exactly.
    """
    lines = ["def obs_key(p):", "    f = p.fields", "    g = f.get"]
    if binding._meta_keys:  # noqa: SLF001 - executor owns the binding
        lines.append("    m = p.meta.get")
    parts = ["tuple(f)"]
    namespace: dict = {}
    for index, key in enumerate(binding._field_keys):  # noqa: SLF001
        namespace[f"F{index}"] = key
        parts.append(f"g(F{index}, 0)")
    for index, key in enumerate(binding._meta_keys):  # noqa: SLF001
        namespace[f"M{index}"] = key
        parts.append(f"m(M{index}, 0)")
    lines.append("    return (" + ", ".join(parts) + ")")
    exec("\n".join(lines), namespace)  # noqa: S102 - static codegen, no packet data
    return namespace["obs_key"]


class BatchExecutor:
    """The batched backend for one :class:`ProgramInstance`.

    Built lazily by :meth:`ProgramInstance.batch_executor` (after state
    sharing/adoption has re-bound rules and maps, like the FlexPath
    compile). The static admission half (FlexVet's ``batch_safe``) is
    fixed per instance; the live half — a meter attaching to a hosted
    table — is re-checked on every batch, which is what "revoked live"
    means.
    """

    def __init__(self, instance, memo_capacity: int = 4096):
        from repro.simulator.fastpath import FlowCache

        if memo_capacity <= 0:
            raise SimulationError("batch memo capacity must be positive")
        self.instance = instance
        self.memo_capacity = memo_capacity
        self.stats = BatchStats()
        report = instance.vet()
        self._static_reasons = tuple(report.batch_reasons)
        self._meter_tables = tuple(
            sorted(e.name for e in report.elements if e.kind == "table")
        )
        self._binding = FlowCache._binding(instance)  # noqa: SLF001 - shared per-instance binding
        self._obs_key = (
            _compile_obs_key(self._binding) if self._binding.cacheable else None
        )
        #: observation key -> recorded outcome, valid under _memo_token.
        self._memo: dict = {}
        self._memo_token = None

    # -- admission ----------------------------------------------------------

    def admission(self):
        """The current live admission verdict (static + meter check)."""
        from repro.simulator.fastpath import batch_gate

        return batch_gate(self.instance)

    def _meter_blocked(self) -> bool:
        rules_by_name = self.instance.rules
        for name in self._meter_tables:
            rules = rules_by_name.get(name)
            if rules is not None and rules.meter is not None:
                return True
        return False

    # -- window / invalidation ---------------------------------------------

    def reset_window(self) -> None:
        """Drop every memoized outcome (the next batch re-records)."""
        self.stats.memo_entries_dropped += len(self._memo)
        self._memo.clear()
        self._memo_token = None

    # -- execution ----------------------------------------------------------

    def execute(self, batch: PacketBatch) -> list:
        """Run one batch; returns per-packet ExecutionResults aligned
        with ``batch.packets`` (every packet mutated exactly as the
        interpreter would have left it)."""
        stats = self.stats
        stats.batches += 1
        size = batch.size
        stats.packets += size
        if size > stats.max_batch_size:
            stats.max_batch_size = size
        if not size:
            return []
        if self._static_reasons or self._meter_blocked():
            stats.revoked_batches += 1
            return self._per_packet(batch)
        if not self._binding.cacheable:
            # Batch-safe but stateful: the memo cannot replay map writes.
            return self._per_packet(batch)
        token = self._binding.token()
        if token is None:
            # A meter on an applied-but-unhosted table: the vet scan
            # above cannot see it, the cacheability token can.
            stats.revoked_batches += 1
            return self._per_packet(batch)
        if token != self._memo_token:
            if self._memo_token is not None:
                stats.revocations += 1
                stats.memo_entries_dropped += len(self._memo)
            self._memo.clear()
            self._memo_token = token
        results: list = [None] * size
        self._run_memo(batch, results)
        return results

    def _per_packet(self, batch: PacketBatch) -> list:
        """Run the batch packet by packet through the normal path."""
        self.stats.fallback_packets += batch.size
        process = self.instance.process
        times = batch.times
        return [process(packet, times[i]) for i, packet in enumerate(batch.packets)]

    def _run_memo(self, batch: PacketBatch, results: list) -> None:
        """Memo tier: sub-group by observation key, execute one
        representative per group, scatter to the rest. Sound because the
        hosted slice is stateless — outcomes are a pure function of the
        observation key, so any cross-group execution order is
        bit-exact and flow-key grouping is subsumed."""
        binding = self._binding
        packets = batch.packets
        times = batch.times

        subgroups: dict = {}
        order: list = []
        i = 0
        for key in map(self._obs_key, packets):
            rows = subgroups.get(key)
            if rows is None:
                subgroups[key] = rows = []
                order.append(key)
            rows.append(i)
            i += 1
        stats = self.stats
        stats.groups += len(order)

        memo = self._memo
        capacity = self.memo_capacity
        instance = self.instance
        for key in order:
            rows = subgroups[key]
            entry = memo.get(key)
            if entry is None:
                rep = rows[0]
                outcome, rep_result = binding.record(packets[rep], times[rep])
                stats.memo_misses += 1
                if len(memo) >= capacity:
                    del memo[next(iter(memo))]
                entry = _memo_entry(outcome, instance)
                memo[key] = entry
                results[rep] = rep_result
                del rows[0]
                if not rows:
                    continue
            outcome, hit_ops, miss_ops, shared, simple = entry
            fields_post = outcome.fields_post
            meta_post = outcome.meta_post
            verdict = outcome.verdict
            if simple:
                for i in rows:
                    packet = packets[i]
                    packet.fields.update(fields_post)
                    packet.meta.update(meta_post)
                    packet.verdict = verdict
                    results[i] = shared
            else:
                fields_absent = outcome.fields_absent
                meta_absent = outcome.meta_absent
                digests = outcome.digests
                for i in rows:
                    packet = packets[i]
                    fields = packet.fields
                    fields.update(fields_post)
                    for absent in fields_absent:
                        fields.pop(absent, None)
                    meta = packet.meta
                    meta.update(meta_post)
                    for absent in meta_absent:
                        meta.pop(absent, None)
                    packet.verdict = verdict
                    if digests:
                        packet.digests.extend(digests)
                    results[i] = shared
            count = len(rows)
            for hit_counts, position, delta in hit_ops:
                hit_counts[position] += delta * count
            for rules, delta in miss_ops:
                rules.miss_count += delta * count
            stats.memo_hits += count

# ---------------------------------------------------------------------------
# Differential harness (the FlexBatch merge gate)
# ---------------------------------------------------------------------------


def batched_differential(
    program: ir.Program,
    packets: list[Packet],
    hosted_elements: set[str] | None = None,
    setup=None,
    batch_size: int = 64,
    now_step: float = 1e-4,
    max_divergences: int = 20,
    mutate=None,
):
    """Run the interpreter and the batched backend side by side and
    report every observable difference (the same checks
    :func:`~repro.simulator.fastpath.differential_check` applies, plus
    end-of-run map state and table counters). ``mutate(reference,
    batched, batch_index)`` — when given — runs before each batch on
    both instances, which is how the revocation tests attach a meter or
    mutate rules mid-run."""
    from repro.simulator.fastpath import DifferentialReport, Divergence
    from repro.simulator.pipeline_exec import ProgramInstance

    if batch_size <= 0:
        raise SimulationError("batch size must be positive")
    reference = ProgramInstance(program, hosted_elements)
    batched = ProgramInstance(program, hosted_elements)
    batched.enable_batching()
    if setup is not None:
        setup(reference)
        setup(batched)

    report = DifferentialReport()
    for batch_index, start in enumerate(range(0, len(packets), batch_size)):
        if len(report.divergences) >= max_divergences:
            break
        chunk = packets[start : start + batch_size]
        if mutate is not None:
            mutate(reference, batched, batch_index)
        lefts = [copy.deepcopy(packet) for packet in chunk]
        rights = [copy.deepcopy(packet) for packet in chunk]
        times = [(start + offset) * now_step for offset in range(len(chunk))]
        ref_results = [
            reference.process(packet, times[offset])
            for offset, packet in enumerate(lefts)
        ]
        batch_results = batched.process_batch(PacketBatch(rights, times=times))
        for offset in range(len(chunk)):
            index = start + offset
            left, right = lefts[offset], rights[offset]
            ref_result, batch_result = ref_results[offset], batch_results[offset]
            report.packets += 1
            checks = (
                ("verdict", left.verdict, right.verdict),
                ("fields", left.fields, right.fields),
                ("meta", left.meta, right.meta),
                ("digests", left.digests, right.digests),
                ("ops", ref_result.ops, batch_result.ops),
                ("recirculations", ref_result.recirculations, batch_result.recirculations),
                ("version", ref_result.version, batch_result.version),
            )
            for kind, expected, actual in checks:
                if expected != actual:
                    report.divergences.append(
                        Divergence(
                            index, kind, copy.deepcopy(expected), copy.deepcopy(actual)
                        )
                    )

    for map_name in reference.maps.names():
        ref_state = dict(reference.maps.state(map_name).items())
        batch_state = dict(batched.maps.state(map_name).items())
        if ref_state != batch_state:
            report.divergences.append(
                Divergence(-1, f"map:{map_name}", ref_state, batch_state)
            )
    for table_name, ref_rules in reference.rules.items():
        batch_rules = batched.rules[table_name]
        if ref_rules.hit_counts != batch_rules.hit_counts:
            report.divergences.append(
                Divergence(
                    -1,
                    f"hit_counts:{table_name}",
                    list(ref_rules.hit_counts),
                    list(batch_rules.hit_counts),
                )
            )
        if ref_rules.miss_count != batch_rules.miss_count:
            report.divergences.append(
                Divergence(
                    -1,
                    f"miss_count:{table_name}",
                    ref_rules.miss_count,
                    batch_rules.miss_count,
                )
            )
    return report
