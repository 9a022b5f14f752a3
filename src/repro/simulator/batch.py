"""FlexBatch: batched execution of packets on one program instance.

FlexPath (:mod:`repro.simulator.fastpath`) compiles a program once and
executes packets one at a time; the per-packet Python overhead — context
set-up, key tuple construction, table lookups, result allocation — caps
the engine in the tens of microseconds per packet. FlexBatch amortizes
that overhead across a :class:`PacketBatch`: the batch is grouped by the
observation key of the instance's outcome memo
(:class:`~repro.simulator.fastpath.FlowCache`), each group makes one
memo lookup (or one recorded execution on a miss), and the outcome is
scattered to the group's packets — field/meta updates per packet, table
counter deltas applied once with the group's multiplicity, one shared
:class:`~repro.simulator.pipeline_exec.ExecutionResult`.

The memo's own verdict is the whole gate. FlexVet documents "cacheable ⇒
stateless ⇒ batch-safe", so any slice the memo serves may be grouped in
any order; a slice it refuses (one that writes a map, or whose applied
tables carry a meter) runs packet by packet through the normal path.
Both routes reproduce the interpreter's per-packet outcomes
*bit-exactly* (the merge gate is :func:`batched_differential` at 0
divergences).

Batching is a library piece on one :class:`ProgramInstance`; a network
device runs every packet through a single
:meth:`~repro.simulator.pipeline_exec.ProgramInstance.process` call.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.lang import ir
from repro.simulator.fastpath import FlowCache, FlowCacheStats
from repro.simulator.packet import Packet

#: Why ``FlexNet.engine(batch=True)`` is refused.
DEVICE_BATCHING_REMOVED = (
    "engine(batch=True) is not supported: a device runs every packet "
    "through one call; batch packets on a single program instance with "
    "ProgramInstance.process_batch (repro.simulator.batch)"
)


class PacketBatch:
    """A batch of packets plus their per-packet virtual arrival times."""

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


@dataclass
class BatchStats:
    """FlexBatch execution counters (the FlexScope batch metrics). The
    batch shape is counted here; memo outcomes live on the executor's
    :class:`~repro.simulator.fastpath.FlowCacheStats`."""

    memo: FlowCacheStats
    batches: int = 0
    packets: int = 0
    #: observation-key groups formed.
    groups: int = 0
    #: packets run through the normal per-packet path (memo refused).
    fallback_packets: int = 0
    #: largest batch observed.
    max_batch_size: int = 0

    @property
    def memo_hits(self) -> int:
        """Packets served by replaying a memoized outcome."""
        return self.memo.hits

    @property
    def memo_misses(self) -> int:
        """Group representatives that recorded a new outcome."""
        return self.memo.misses

    @property
    def revoked_batches(self) -> int:
        """Batches the memo refused (each ran packet by packet)."""
        return self.memo.bypasses

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
            "revocations": self.memo.invalidations,
            "memo_entries_dropped": self.memo.entries_dropped,
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
            f"{self.memo.invalidations} memo flush(es)"
        )


class BatchExecutor:
    """The batched backend for one :class:`ProgramInstance`, over its own
    :class:`~repro.simulator.fastpath.FlowCache` of ``memo_capacity``
    entries.

    Built lazily by :meth:`ProgramInstance.batch_executor` (after state
    sharing/adoption has re-bound rules and maps, like the FlexPath
    compile). The memo re-checks its token on every batch, so a meter
    attaching or a rule changing between batches takes effect at once.
    """

    def __init__(self, instance, memo_capacity: int = 4096):
        self.instance = instance
        self.cache = FlowCache(memo_capacity)
        self.stats = BatchStats(self.cache.stats)

    @property
    def admitted(self) -> bool:
        """Whether the memo would serve this instance's next batch."""
        return self.cache.admits(self.instance)

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
        packets = batch.packets
        times = batch.times
        cache = self.cache
        binding = cache._admit(self.instance)  # noqa: SLF001 - the executor shares the memo
        if binding is None:
            stats.fallback_packets += size
            process = self.instance.process
            return [process(packet, times[i]) for i, packet in enumerate(packets)]

        # Group rows by observation key. Sound in any order because the
        # hosted slice is stateless: outcomes are a pure function of the key.
        groups: dict = {}
        for i, key in enumerate(map(binding.obs_key, packets)):
            rows = groups.get(key)
            if rows is None:
                groups[key] = [i]
            else:
                rows.append(i)
        stats.groups += len(groups)

        results: list = [None] * size
        serve = cache._serve  # noqa: SLF001
        for key, rows in groups.items():
            result = serve(binding, key, [packets[i] for i in rows], times[rows[0]])
            for i in rows:
                results[i] = result
        return results


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
    from repro.simulator.fastpath import DifferentialReport
    from repro.simulator.pipeline_exec import ProgramInstance

    if batch_size <= 0:
        raise SimulationError("batch size must be positive")
    reference = ProgramInstance(program, hosted_elements)
    batched = ProgramInstance(program, hosted_elements)
    batched.enable_fastpath()
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
        for offset, outcome in enumerate(zip(lefts, rights, ref_results, batch_results)):
            report.compare_packet(start + offset, *outcome)
    report.compare_state(reference, batched)
    return report
