"""FlexPath tests: compiled execution is byte-identical to the
interpreter, and the flow micro-cache never serves a stale verdict."""

import copy

import pytest

from repro.analysis.cacheability import decide
from repro.analysis.corpus import bundled_programs
from repro.analysis.dataflow import analyze
from repro.apps import base_infrastructure, firewall_delta
from repro.control.p4runtime import P4RuntimeClient
from repro.lang.delta import apply_delta
from repro.lang.ir import ActionCall
from repro.runtime.device import DeviceRuntime
from repro.simulator import fastpath
from repro.simulator.packet import Verdict, make_packet
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, ternary
from repro.targets import drmt_switch

PROGRAMS = bundled_programs()


def stateless_slice(program) -> set:
    """The hosted elements a cache-friendly device would run: every
    applied element that writes no map."""
    info = analyze(program)
    return {
        name for name in info.applied if not info.element_access(name).map_writes
    }


# ---------------------------------------------------------------------------
# Differential: compiled vs interpreted
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize(
        "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
    )
    def test_bundled_program_default_rules(self, label, program):
        packets = fastpath.seeded_corpus(120, seed=7)
        report = fastpath.differential_check(program, packets)
        assert report.ok, "\n".join(str(d) for d in report.divergences)

    @pytest.mark.parametrize(
        "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
    )
    def test_bundled_program_seeded_rules(self, label, program):
        packets = fastpath.seeded_corpus(120, seed=11)

        def setup(instance):
            fastpath.seeded_rules(program, instance, seed=13)

        report = fastpath.differential_check(program, packets, setup=setup)
        assert report.ok, "\n".join(str(d) for d in report.divergences)

    def test_hosted_slice_differential(self):
        program, _ = apply_delta(base_infrastructure(), firewall_delta())
        hosted = stateless_slice(program)
        packets = fastpath.seeded_corpus(100, seed=3)
        report = fastpath.differential_check(
            program, packets, hosted_elements=hosted
        )
        assert report.ok, "\n".join(str(d) for d in report.divergences)

    def test_ops_accounting_exact(self):
        """The certificate-facing op counter is bit-for-bit identical —
        not approximately: FlexCheck's bounds must mean the same thing
        under both executors."""
        program = base_infrastructure()
        interp = ProgramInstance(program)
        compiled = ProgramInstance(program)
        compiled.enable_fastpath()
        for i, packet in enumerate(fastpath.seeded_corpus(60, seed=21)):
            a = interp.process(copy.deepcopy(packet), i * 1e-4)
            b = compiled.process(copy.deepcopy(packet), i * 1e-4)
            assert a.ops == b.ops

    def test_recirculation_counted(self):
        """A compiled program that recirculates reports the same count
        as the interpreter (the seeded differentials above compare the
        field on every packet; this pins the plumbing explicitly)."""
        from repro.apps.base import standard_builder
        from repro.lang import builder as b

        builder = standard_builder("recirc")
        builder.function(
            "bounce",
            [
                b.if_(
                    b.binop("==", "meta.bounced", 0),
                    [b.assign("meta.bounced", 1), b.call("recirculate")],
                )
            ],
        )
        builder.apply("bounce")
        program = builder.build()
        interp = ProgramInstance(program)
        compiled = ProgramInstance(program)
        compiled.enable_fastpath()
        a = interp.process(make_packet(1, 2), 0.0)
        b_ = compiled.process(make_packet(1, 2), 0.0)
        assert a.recirculations == b_.recirculations == 1
        assert a.ops == b_.ops


class TestEnableDisable:
    def test_disable_falls_back_to_interpreter(self):
        program = base_infrastructure()
        instance = ProgramInstance(program)
        instance.enable_fastpath()
        instance.process(make_packet(1, 2), 0.0)
        assert instance._compiled is not None
        instance.enable_fastpath(False)
        assert instance._compiled is None
        packet = make_packet(1, 2)
        instance.process(packet, 0.0)
        assert packet.verdict is Verdict.FORWARD

    def test_compiled_artifact_reused_across_packets(self):
        instance = ProgramInstance(base_infrastructure())
        instance.enable_fastpath()
        instance.process(make_packet(1, 2), 0.0)
        artifact = instance._compiled
        instance.process(make_packet(3, 4), 1e-4)
        assert instance._compiled is artifact

    def test_rules_inserted_after_compile_visible(self):
        """The compiled closures index the live rule stores — a rule
        inserted after the first packet must take effect."""
        instance = ProgramInstance(base_infrastructure())
        instance.enable_fastpath()
        packet = make_packet(0xDEAD, 2)
        instance.process(copy.deepcopy(packet), 0.0)
        instance.rules["acl"].insert(
            Rule(
                matches=(ternary(0xDEAD, 0xFFFFFFFF), ternary(0, 0)),
                action=ActionCall("drop"),
                priority=5,
            )
        )
        blocked = copy.deepcopy(packet)
        instance.process(blocked, 1e-4)
        assert blocked.verdict is Verdict.DROP


# ---------------------------------------------------------------------------
# Cacheability analysis
# ---------------------------------------------------------------------------


class TestCacheability:
    def test_whole_program_with_map_write_rejected(self):
        program = base_infrastructure()  # count_flow writes flow_counts
        decision = decide(program)
        assert not decision.cacheable
        assert any("flow_counts" in reason for reason in decision.reasons)

    def test_stateless_hosted_slice_cacheable(self):
        program, _ = apply_delta(base_infrastructure(), firewall_delta())
        decision = decide(program, stateless_slice(program))
        assert decision.cacheable
        assert "acl" in decision.applied_tables
        assert "fw_block" in decision.applied_tables
        # written fields participate in the key (replay validity).
        assert ("ipv4", "ttl") in decision.key_fields

    def test_slice_including_map_writer_rejected(self):
        program, _ = apply_delta(base_infrastructure(), firewall_delta())
        hosted = stateless_slice(program) | {"fw_track"}
        decision = decide(program, hosted)
        assert not decision.cacheable  # fw_track writes fw_conns
        assert any("fw_conns" in reason for reason in decision.reasons)


# ---------------------------------------------------------------------------
# Flow cache: correctness and invalidation on one ProgramInstance
# ---------------------------------------------------------------------------


def observed_key_cases():
    """One (program, hosted slice, kind, key) case per input the stateless
    slice of a bundled program observes: every field of the base
    program's slice, and every metadata key of each cacheable slice."""
    cases = []
    for label, program in PROGRAMS:
        hosted = stateless_slice(program)
        if not hosted:
            continue
        decision = decide(program, hosted)
        if not decision.cacheable:
            continue
        inputs = [("meta", key) for key in decision.key_meta]
        if label == "base":
            inputs = [("field", key) for key in decision.key_fields] + inputs
        for kind, key in inputs:
            name = ".".join(key) if kind == "field" else key
            cases.append(
                pytest.param(program, hosted, kind, key, id=f"{label}-{kind}-{name}")
            )
    return cases


def absent_and_zero(kind, key, absent_first):
    """Two packets alike but for ``key``: one lacks it, one holds 0."""
    lacking = make_packet(0x0A000001, 0x0A000002)
    store = lacking.fields if kind == "field" else lacking.meta
    store.pop(key, None)
    zero = copy.deepcopy(lacking)
    (zero.fields if kind == "field" else zero.meta)[key] = 0
    return [lacking, zero] if absent_first else [zero, lacking]


OBSERVED_KEY_CASES = observed_key_cases()
ABSENT_ORDERS = pytest.mark.parametrize(
    "absent_first", [True, False], ids=["absent-first", "zero-first"]
)


def cached_instance(program=None, hosted=None):
    """A compiled instance of a cacheable slice plus a small flow cache."""
    program = program or base_infrastructure()
    hosted = hosted if hosted is not None else stateless_slice(program)
    instance = ProgramInstance(program, hosted_elements=set(hosted))
    instance.enable_fastpath()
    return instance, fastpath.FlowCache(capacity=64)


def reference_instance(program=None, hosted=None):
    program = program or base_infrastructure()
    hosted = hosted if hosted is not None else stateless_slice(program)
    return ProgramInstance(program, hosted_elements=set(hosted))


def run_cached(cache, instance, packet, now):
    """What a caller of the cache does: serve from it, or run the
    instance when the cache refuses the program."""
    result = cache.process(instance, packet, now)
    return result if result is not None else instance.process(packet, now)


class TestFlowCache:
    def test_hits_and_identical_outcomes(self):
        plain = reference_instance()
        instance, cache = cached_instance()
        flows = [make_packet(i % 8, 100 + i % 8) for i in range(64)]
        for i, packet in enumerate(flows):
            mine, theirs = copy.deepcopy(packet), copy.deepcopy(packet)
            a = run_cached(cache, instance, mine, i * 1e-4)
            b = plain.process(theirs, i * 1e-4)
            assert mine.verdict is theirs.verdict
            assert mine.fields == theirs.fields
            assert mine.meta == theirs.meta
            assert a.ops == b.ops
        assert cache.stats.hits > 0 and cache.stats.bypasses == 0

    def test_table_counters_replayed(self):
        instance, cache = cached_instance()
        reference = reference_instance()
        for i in range(30):
            packet = make_packet(i % 3, 50)
            run_cached(cache, instance, copy.deepcopy(packet), i * 1e-4)
            reference.process(copy.deepcopy(packet), i * 1e-4)
        assert cache.stats.hits > 0
        mine = instance.rules["l3"]
        theirs = reference.rules["l3"]
        assert mine.miss_count == theirs.miss_count
        assert mine.hit_counts == theirs.hit_counts

    def test_rule_insert_invalidates(self):
        program = base_infrastructure()
        device = DeviceRuntime("sw1", drmt_switch("sw1"))
        device.install(program, hosted_elements=stateless_slice(program))
        instance = device.active_instance
        cache = fastpath.FlowCache(capacity=64)
        blocked = make_packet(0xBAD, 7)
        run_cached(cache, instance, copy.deepcopy(blocked), 0.0)
        run_cached(cache, instance, copy.deepcopy(blocked), 1e-4)  # cached now
        assert cache.stats.hits >= 1
        client = P4RuntimeClient(device)
        from repro.control.p4runtime import TableEntry

        client.insert_entry(
            TableEntry(
                table="acl",
                matches=(ternary(0xBAD, 0xFFFFFFFF), ternary(0, 0)),
                action="drop",
                priority=9,
            )
        )
        after = copy.deepcopy(blocked)
        run_cached(cache, instance, after, 2e-4)
        assert after.verdict is Verdict.DROP  # not the stale FORWARD
        assert cache.stats.invalidations >= 1

    def test_rule_remove_invalidates(self):
        instance, cache = cached_instance()
        rule = Rule(
            matches=(ternary(0xBAD, 0xFFFFFFFF), ternary(0, 0)),
            action=ActionCall("drop"),
            priority=9,
        )
        instance.rules["acl"].insert(rule)
        blocked = make_packet(0xBAD, 7)
        run_cached(cache, instance, copy.deepcopy(blocked), 0.0)
        run_cached(cache, instance, copy.deepcopy(blocked), 1e-4)
        instance.rules["acl"].remove(rule)
        after = copy.deepcopy(blocked)
        run_cached(cache, instance, after, 2e-4)
        assert after.verdict is Verdict.FORWARD

    def test_meter_set_forces_bypass_and_clear_resumes(self):
        from repro.simulator.meters import Meter, MeterConfig

        instance, cache = cached_instance()
        packet = make_packet(1, 2)
        run_cached(cache, instance, copy.deepcopy(packet), 0.0)
        run_cached(cache, instance, copy.deepcopy(packet), 1e-4)
        hits_before = cache.stats.hits
        assert hits_before >= 1

        table = instance.rules["acl"]
        table.meter = Meter(MeterConfig(rate_pps=1000.0, burst_packets=10.0))
        assert cache.process(instance, copy.deepcopy(packet), 2e-4) is None
        assert cache.stats.bypasses >= 1

        table.meter = None  # detach: caching resumes
        run_cached(cache, instance, copy.deepcopy(packet), 3e-4)
        run_cached(cache, instance, copy.deepcopy(packet), 4e-4)
        assert cache.stats.hits > hits_before

    def test_map_write_invalidates_via_mutation_counter(self):
        """A control-plane write to a map the program *reads* must drop
        cached outcomes (the map's mutation counter is in the token)."""
        from repro.apps.base import standard_builder
        from repro.lang import builder as b

        builder = standard_builder("blocklist")
        builder.map("blocked", keys=["ipv4.src"], value_type="u64", max_entries=64)
        builder.function(
            "check",
            [
                b.if_(
                    b.binop("==", b.map_get("blocked", "ipv4.src"), 1),
                    [b.call("mark_drop")],
                )
            ],
        )
        builder.apply("check")
        program = builder.build()
        assert decide(program).cacheable  # read-only: whole program caches

        instance, cache = cached_instance(program)
        packet = make_packet(5, 2)
        run_cached(cache, instance, copy.deepcopy(packet), 0.0)
        cached = copy.deepcopy(packet)
        run_cached(cache, instance, cached, 1e-4)
        assert cached.verdict is Verdict.FORWARD
        assert cache.stats.hits >= 1

        instance.maps.state("blocked").put((5,), 1)
        after = copy.deepcopy(packet)
        run_cached(cache, instance, after, 2e-4)
        assert after.verdict is Verdict.DROP  # not the stale FORWARD
        assert cache.stats.invalidations >= 1

    def test_mid_run_reconfig_no_stale_verdicts(self):
        """One cache across a program change: the new version's token
        differs, so the old version's outcomes are dropped, never served.
        Both versions come from a device's hitless update, so they share
        state the way a live reconfiguration does."""
        program = base_infrastructure()
        hosted = stateless_slice(program)
        device = DeviceRuntime("d", drmt_switch("d"))
        device.install(program, set(hosted))
        oracle = DeviceRuntime("o", drmt_switch("o"))
        oracle.enable_fastpath(False)
        oracle.install(program, set(hosted))
        instance, reference = device.active_instance, oracle.active_instance
        cache = fastpath.FlowCache(capacity=64)

        flows = [make_packet(i % 6, 40 + i % 6) for i in range(24)]
        for i, packet in enumerate(flows):
            run_cached(cache, instance, copy.deepcopy(packet), i * 1e-4)
            reference.process(copy.deepcopy(packet), i * 1e-4)
        assert cache.stats.hits > 0

        patched, _ = apply_delta(program, firewall_delta())
        new_hosted = stateless_slice(patched)
        successor = device.begin_hitless_update(patched, 1.0, 0.05, set(new_hosted))
        new_reference = oracle.begin_hitless_update(patched, 1.0, 0.05, set(new_hosted))
        assert successor.fastpath_enabled and not new_reference.fastpath_enabled

        for i, packet in enumerate(flows * 2):
            now = 1.05 + i * 0.01
            mine, theirs = copy.deepcopy(packet), copy.deepcopy(packet)
            run_cached(cache, successor, mine, now)
            new_reference.process(theirs, now)
            assert mine.verdict is theirs.verdict, (i, now)
            assert mine.fields == theirs.fields
            assert mine.meta == theirs.meta
        assert cache.stats.invalidations >= 1

    def test_lru_eviction_bounded(self):
        instance, cache = cached_instance()
        for i in range(200):
            run_cached(cache, instance, make_packet(i, i + 1), i * 1e-4)
        assert len(cache) <= 64
        assert cache.stats.misses == 200

    @ABSENT_ORDERS
    @pytest.mark.parametrize("program,hosted,kind,key", OBSERVED_KEY_CASES)
    def test_missing_key_never_shares_an_entry_with_zero(
        self, program, hosted, kind, key, absent_first
    ):
        """A packet lacking an observed field or metadata key and one
        holding 0 there must not share a memo entry: replaying one's
        outcome on the other would add or remove that key."""
        packets = absent_and_zero(kind, key, absent_first)
        reference = reference_instance(program, hosted)
        instance, cache = cached_instance(program, hosted)
        for i, packet in enumerate(packets):
            mine, theirs = copy.deepcopy(packet), copy.deepcopy(packet)
            a = run_cached(cache, instance, mine, i * 1e-4)
            b = reference.process(theirs, i * 1e-4)
            assert mine.verdict is theirs.verdict
            assert mine.fields == theirs.fields
            assert mine.meta == theirs.meta
            assert mine.digests == theirs.digests
            assert a.ops == b.ops
        assert cache.stats.hits == 0


class TestFlexNetFacade:
    def test_enable_fastpath_all_devices(self, flexnet):
        flexnet.engine(fastpath=True)
        for device in flexnet.controller.devices.values():
            assert device.fastpath_enabled
        report = flexnet.run_traffic(rate_pps=500, duration_s=0.2)
        assert report.metrics.lost_by_infrastructure == 0
        assert report.metrics.delivered > 0
