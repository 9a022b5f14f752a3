"""FlexBatch unit tests: the packet batch, the batched table lookup, the
executor over the outcome memo (grouped replay / per-packet fallback),
live refusal when a meter attaches, and the memo's absent-vs-zero key."""

import copy

import pytest

from repro.analysis.dataflow import analyze
from repro.apps import base_infrastructure
from repro.errors import SimulationError
from repro.lang.ir import ActionCall, MatchKind, TableDef, TableKey
from repro.lang import builder as b
from repro.simulator import fastpath
from repro.simulator.batch import BatchExecutor, PacketBatch
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.packet import make_packet
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, TableRules, exact, lpm, ternary
from tests.simulator.test_fastpath import (
    ABSENT_ORDERS,
    OBSERVED_KEY_CASES,
    absent_and_zero,
)


def stateless_slice(program) -> set:
    info = analyze(program)
    return {
        name for name in info.applied if not info.element_access(name).map_writes
    }


def sliced_instance(memo_capacity: int = 4096):
    """A cacheable hosted slice of the base program, which the memo serves."""
    program = base_infrastructure()
    instance = ProgramInstance(program, hosted_elements=stateless_slice(program))
    fastpath.seeded_rules(program, instance, seed=5)
    return instance, BatchExecutor(instance, memo_capacity=memo_capacity)


def reference_results(instance_factory, packets, times):
    reference = instance_factory()
    work = [copy.deepcopy(p) for p in packets]
    results = [reference.process(p, t) for p, t in zip(work, times)]
    return reference, work, results


# ---------------------------------------------------------------------------
# PacketBatch
# ---------------------------------------------------------------------------


class TestPacketBatch:
    def test_size_and_uniform_times(self):
        packets = [make_packet(1, 2), make_packet(3, 4, ttl=9)]
        batch = PacketBatch(packets, now=0.5)
        assert batch.size == 2
        assert batch.times == [0.5, 0.5]
        assert batch.packets == packets

    def test_times_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            PacketBatch([make_packet(1, 2)], times=[0.0, 1.0])


# ---------------------------------------------------------------------------
# Batched table lookup
# ---------------------------------------------------------------------------


def _table(kinds):
    return TableDef(
        name="t",
        keys=tuple(
            TableKey(field=b.field(f"h.k{i}"), match_kind=kind)
            for i, kind in enumerate(kinds)
        ),
        actions=("a0", "a1", "a2"),
        size=4096,
        default_action=ActionCall(action="a0"),
    )


class TestLookupBatch:
    def _check_equivalence(self, kinds, rules_spec, probes):
        sequential = TableRules(_table(kinds))
        batched = TableRules(_table(kinds))
        for rule in rules_spec:
            sequential.insert(rule)
            batched.insert(copy.deepcopy(rule))
        expected = [sequential.lookup(key) for key in probes]
        got = batched.lookup_batch(list(probes))
        assert got == expected
        # Counters must land identically: hit multiplicity is applied
        # per unique key, not once.
        assert batched.hit_counts == sequential.hit_counts
        assert batched.miss_count == sequential.miss_count

    def test_exact_index_gather(self):
        rules = [
            Rule(matches=(exact(v),), action=ActionCall("a1", (v,)))
            for v in (1, 2, 3)
        ]
        self._check_equivalence(
            (MatchKind.EXACT,),
            rules,
            [(1,), (2,), (2,), (9,), (3,), (2,), (9,)],
        )

    def test_ordered_scan_residuals(self):
        rules = [
            Rule(matches=(lpm(0x0A000000, 8), ternary(0, 0)), action=ActionCall("a1")),
            Rule(
                matches=(lpm(0x0A010000, 16), ternary(7, 0xFF)),
                action=ActionCall("a2"),
                priority=5,
            ),
        ]
        self._check_equivalence(
            (MatchKind.LPM, MatchKind.TERNARY),
            rules,
            [(0x0A010001, 7), (0x0A020000, 1), (0xC0000000, 7), (0x0A010001, 7)],
        )

    def test_empty_batch(self):
        rules = TableRules(_table((MatchKind.EXACT,)))
        assert rules.lookup_batch([]) == []
        assert rules.miss_count == 0


# ---------------------------------------------------------------------------
# BatchExecutor over the outcome memo
# ---------------------------------------------------------------------------


class TestBatchExecutor:
    def test_memo_capacity_must_be_positive(self):
        instance = ProgramInstance(base_infrastructure())
        with pytest.raises(SimulationError):
            BatchExecutor(instance, memo_capacity=0)

    def test_size_one_batch_matches_per_packet(self):
        program = base_infrastructure()

        def factory():
            instance = ProgramInstance(program)
            fastpath.seeded_rules(program, instance, seed=5)
            return instance

        packet = make_packet(0x0A000001, 0x0A000002)
        _, work, expected = reference_results(factory, [packet], [0.0])
        instance = factory()
        result = instance.batch_executor().execute(
            PacketBatch([copy.deepcopy(packet)], times=[0.0])
        )
        assert len(result) == 1
        assert result[0].ops == expected[0].ops

    def test_memo_tier_groups_and_hits(self):
        instance, executor = sliced_instance()
        packets = [make_packet(0x0A000001, 0x0A000002) for _ in range(8)]
        executor.execute(PacketBatch(packets))
        stats = executor.stats
        assert stats.batches == 1
        assert stats.packets == 8
        assert stats.groups == 1  # one flow -> one observation key
        assert stats.memo_misses == 1
        assert stats.memo_hits == 7
        assert stats.fallback_packets == 0

    def test_memo_eviction_is_bounded_and_exact(self):
        instance, executor = sliced_instance(memo_capacity=2)
        corpus = fastpath.seeded_corpus(40, seed=3)
        times = [i * 1e-4 for i in range(len(corpus))]

        program = base_infrastructure()

        def factory():
            reference = ProgramInstance(
                program, hosted_elements=stateless_slice(program)
            )
            fastpath.seeded_rules(program, reference, seed=5)
            return reference

        reference, ref_work, ref_results = reference_results(factory, corpus, times)

        work = [copy.deepcopy(p) for p in corpus]
        results = executor.execute(PacketBatch(work, times=times))
        assert len(executor.cache) <= 2  # eviction never exceeds capacity
        assert executor.stats.memo_misses > 2  # ...so it actually evicted
        for left, right, a, c in zip(ref_work, work, ref_results, results):
            assert left.verdict is right.verdict
            assert left.fields == right.fields
            assert a.ops == c.ops
        for name, rules in reference.rules.items():
            assert rules.hit_counts == instance.rules[name].hit_counts
            assert rules.miss_count == instance.rules[name].miss_count

    def test_counter_multiplicity_exact(self):
        instance, executor = sliced_instance()
        packets = [make_packet(0x0A000001, 0x0A000002) for _ in range(5)]
        executor.execute(PacketBatch(packets))

        program = base_infrastructure()

        def factory():
            reference = ProgramInstance(
                program, hosted_elements=stateless_slice(program)
            )
            fastpath.seeded_rules(program, reference, seed=5)
            return reference

        reference, _, _ = reference_results(
            factory, packets, [0.0] * len(packets)
        )
        for name, rules in reference.rules.items():
            assert rules.hit_counts == instance.rules[name].hit_counts
            assert rules.miss_count == instance.rules[name].miss_count

    def test_rule_mutation_flushes_memo_live(self):
        instance, executor = sliced_instance()
        executor.execute(PacketBatch([make_packet(0x0A000001, 2)] * 3))
        memo = executor.cache.stats
        assert memo.invalidations == 0
        instance.rules["l2"].insert(
            Rule(matches=(exact(0xBEEF),), action=ActionCall("forward", (1,)))
        )
        executor.execute(PacketBatch([make_packet(0x0A000001, 2)] * 3))
        assert memo.invalidations == 1
        assert memo.entries_dropped >= 1

    def test_meter_attach_revokes_batches_live(self):
        instance, executor = sliced_instance()
        executor.execute(PacketBatch([make_packet(1, 2)]))
        assert executor.stats.revoked_batches == 0
        assert executor.admitted
        instance.rules["l2"].meter = Meter(
            MeterConfig(rate_pps=1000.0, burst_packets=10.0)
        )
        assert not executor.admitted
        results = executor.execute(PacketBatch([make_packet(1, 2), make_packet(3, 4)]))
        assert executor.stats.revoked_batches == 1
        assert executor.stats.fallback_packets == 2
        assert all(r is not None for r in results)
        # Detach: admission returns, batching resumes.
        instance.rules["l2"].meter = None
        assert executor.admitted
        executor.execute(PacketBatch([make_packet(1, 2)]))
        assert executor.stats.revoked_batches == 1

    def test_empty_batch(self):
        instance, executor = sliced_instance()
        assert executor.execute(PacketBatch([])) == []

    @ABSENT_ORDERS
    @pytest.mark.parametrize(
        "program,hosted,kind,key",
        [case for case in OBSERVED_KEY_CASES if case.values[2] == "meta"],
    )
    def test_missing_meta_key_never_groups_with_zero(
        self, program, hosted, kind, key, absent_first
    ):
        """One batch holding a packet that lacks an observed metadata key
        and one that holds 0 there: two groups, each exact."""
        packets = absent_and_zero(kind, key, absent_first)

        def factory():
            return ProgramInstance(program, hosted_elements=set(hosted))

        _, expected, ref_results = reference_results(factory, packets, [0.0, 0.0])
        executor = BatchExecutor(factory())
        work = [copy.deepcopy(p) for p in packets]
        results = executor.execute(PacketBatch(work))
        for want, got, a, c in zip(expected, work, ref_results, results):
            assert got.verdict is want.verdict
            assert got.fields == want.fields
            assert got.meta == want.meta
            assert got.digests == want.digests
            assert c.ops == a.ops
        assert executor.stats.groups == 2
        assert executor.stats.memo_hits == 0


# ---------------------------------------------------------------------------
# ProgramInstance / device facade
# ---------------------------------------------------------------------------


class TestFacades:
    def test_process_batch_accepts_plain_lists(self):
        instance = ProgramInstance(base_infrastructure())
        instance.enable_fastpath()
        results = instance.process_batch([make_packet(1, 2), make_packet(3, 4)])
        assert len(results) == 2

    def test_process_batch_without_batching_falls_back(self):
        """The whole base program writes flow_counts, so the memo refuses
        to batch it and every packet takes the normal path."""
        instance = ProgramInstance(base_infrastructure())
        results = instance.process_batch([make_packet(1, 2)])
        assert len(results) == 1
        stats = instance.batch_executor().stats
        assert stats.fallback_packets == 1
        assert stats.revoked_batches == 1
        assert not instance.batch_executor().admitted


# ---------------------------------------------------------------------------
# FlowCacheStats: the entries-dropped counter (fast-path satellite)
# ---------------------------------------------------------------------------


class TestFlowCacheEntriesDropped:
    def test_invalidation_counts_dropped_entries(self):
        program = base_infrastructure()
        instance = ProgramInstance(
            program, hosted_elements=stateless_slice(program)
        )
        fastpath.seeded_rules(program, instance, seed=5)
        instance.enable_fastpath()
        cache = fastpath.FlowCache()
        for i in range(4):
            cache.process(instance, make_packet(1, 2 + i), i * 1e-4)
        assert len(cache) > 0
        populated = len(cache)
        assert cache.stats.entries_dropped == 0
        instance.rules["l2"].insert(
            Rule(matches=(exact(0xBEEF),), action=ActionCall("forward", (1,)))
        )
        cache.process(instance, make_packet(1, 2), 1.0)
        assert cache.stats.entries_dropped == populated
        assert cache.stats.to_dict()["entries_dropped"] == populated
