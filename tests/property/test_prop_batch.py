"""Outcome-memo differential properties: for **every** bundled program —
whole programs on the per-packet fallback, stateless hosted slices on
the memo — batched execution is bit-identical to the tree-walking
interpreter at every batch size, including size 1, a prime that
straddles chunk boundaries, the default 64, and a batch larger than the
memo capacity (eviction mid-batch). Both routes into the memo
(``process_batch`` and ``FlowCache.process``) also match the interpreter
on a perturbed corpus where packets lack observed fields or metadata
keys, across a rule insert mid-run. Live revocation — a meter attaching
or a rule mutating *between* batches — must also preserve bit-identity
while the memo's revocation counters fire."""

import copy
import random

import pytest

from repro.analysis.cacheability import decide
from repro.analysis.corpus import bundled_programs
from repro.analysis.dataflow import analyze
from repro.analysis.vet import vet
from repro.apps import base_infrastructure
from repro.lang.ir import ActionCall
from repro.simulator import fastpath
from repro.simulator.batch import PacketBatch, batched_differential
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, exact

PROGRAMS = bundled_programs()
#: the memo-eviction size: BatchExecutor memo capacity is 4096, so one
#: batch of 4097 distinct-key packets forces LRU eviction mid-batch —
#: but a 4097-packet interpreter pass per program is too slow for CI,
#: so the big size runs on the base program only (test below).
BATCH_SIZES = (1, 7, 64)
MEMO_CAPACITY_PLUS_ONE = 4097


def seeded_setup(program, seed=13):
    def setup(instance):
        fastpath.seeded_rules(program, instance, seed=seed)

    return setup


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize(
    "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
)
def test_batched_matches_interpreter(label, program, batch_size):
    packets = fastpath.seeded_corpus(140, seed=7)
    report = batched_differential(
        program,
        packets,
        setup=seeded_setup(program),
        batch_size=batch_size,
    )
    assert not report.divergences, "\n".join(
        str(d) for d in report.divergences[:5]
    )


def stateless_slice(program) -> set:
    info = analyze(program)
    return {
        name for name in info.applied if not info.element_access(name).map_writes
    }


def perturbed_corpus(program, hosted, count=96, seed=37):
    """A few seeded flows tiled out, where a quarter of the packets lack
    one observed field or metadata key and another quarter hold 0 there
    (``seeded_corpus`` never drops a key), so same-flow packets differ
    only in whether that key is missing."""
    rng = random.Random(seed)
    decision = decide(program, hosted)
    observed = [("field", key) for key in decision.key_fields]
    observed += [("meta", key) for key in decision.key_meta]
    flows = fastpath.seeded_corpus(8, seed=seed)
    packets = []
    for index in range(count):
        packet = copy.deepcopy(flows[index % len(flows)])
        roll = rng.random()
        if roll < 0.5:
            kind, key = rng.choice(observed)
            store = packet.fields if kind == "field" else packet.meta
            if roll < 0.25:
                store.pop(key, None)
            else:
                store[key] = 0
        packets.append(packet)
    return packets


def _via_process_batch(instance, cache, packets, times):
    return instance.process_batch(PacketBatch(packets, times=times))


def _via_flow_cache(instance, cache, packets, times):
    results = []
    for packet, now in zip(packets, times):
        result = cache.process(instance, packet, now)
        results.append(result if result is not None else instance.process(packet, now))
    return results


MEMO_ROUTES = {"process_batch": _via_process_batch, "flowcache": _via_flow_cache}


@pytest.mark.parametrize("route", sorted(MEMO_ROUTES))
@pytest.mark.parametrize(
    "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
)
def test_memo_routes_match_interpreter_on_perturbed_corpus(label, program, route):
    """Each route into the outcome memo, on the program's stateless
    slice, against the interpreter: per-packet verdict, fields, metadata,
    digests and ops, then end map state and table counters, with a rule
    insert on both instances halfway through."""
    hosted = stateless_slice(program) or None
    packets = perturbed_corpus(program, hosted)
    reference = ProgramInstance(program, hosted)
    memo = ProgramInstance(program, hosted)
    memo.enable_fastpath()
    cache = fastpath.FlowCache()
    for instance in (reference, memo):
        seeded_setup(program)(instance)
    run = MEMO_ROUTES[route]

    chunk = 16
    divergences = []
    for start in range(0, len(packets), chunk):
        if start == len(packets) // 2:
            for instance in (reference, memo):
                seeded_setup(program, seed=41)(instance)
        lefts = [copy.deepcopy(p) for p in packets[start : start + chunk]]
        rights = [copy.deepcopy(p) for p in lefts]
        times = [(start + i) * 1e-4 for i in range(len(lefts))]
        expected = [reference.process(p, t) for p, t in zip(lefts, times)]
        got = run(memo, cache, rights, times)
        for offset, (left, right, a, b) in enumerate(zip(lefts, rights, expected, got)):
            for kind, want, have in (
                ("verdict", left.verdict, right.verdict),
                ("fields", left.fields, right.fields),
                ("meta", left.meta, right.meta),
                ("digests", left.digests, right.digests),
                ("ops", a.ops, b.ops),
            ):
                if want != have:
                    divergences.append((start + offset, kind, want, have))
    for name in reference.maps.names():
        want = dict(reference.maps.state(name).items())
        have = dict(memo.maps.state(name).items())
        if want != have:
            divergences.append((-1, f"map:{name}", want, have))
    for name, rules in reference.rules.items():
        theirs = memo.rules[name]
        if (rules.hit_counts, rules.miss_count) != (theirs.hit_counts, theirs.miss_count):
            divergences.append((-1, f"counters:{name}", rules.hit_counts, theirs.hit_counts))
    assert not divergences, divergences[:5]

    stats = cache.stats if route == "flowcache" else memo.batch_executor().stats.memo
    if decide(program, hosted).cacheable:
        assert stats.hits > 0  # the memo served packets, before and after the insert
        assert stats.invalidations > 0


def test_batched_matches_interpreter_beyond_memo_capacity():
    """One batch larger than the memo capacity on the cacheable hosted
    slice: LRU eviction happens mid-batch and stays bit-exact."""
    program = base_infrastructure()
    hosted = stateless_slice(program)
    packets = fastpath.seeded_corpus(MEMO_CAPACITY_PLUS_ONE + 50, seed=17)
    report = batched_differential(
        program,
        packets,
        hosted_elements=hosted,
        setup=seeded_setup(program),
        batch_size=MEMO_CAPACITY_PLUS_ONE,
    )
    assert not report.divergences, "\n".join(
        str(d) for d in report.divergences[:5]
    )


def test_hosted_slice_memo_tier_matches_interpreter():
    """The gated configuration: stateless hosted slices of every
    batch-safe bundled program run through the memo bit-exactly."""
    for label, program in PROGRAMS:
        if not vet(program).batch_safe:
            continue
        hosted = stateless_slice(program)
        if not hosted:
            continue
        packets = fastpath.seeded_corpus(120, seed=23)
        report = batched_differential(
            program,
            packets,
            hosted_elements=hosted,
            setup=seeded_setup(program),
            batch_size=32,
        )
        assert not report.divergences, (label, report.divergences[:5])


# ---------------------------------------------------------------------------
# Live revocation mid-run
# ---------------------------------------------------------------------------


def _capture_batched(holder):
    """A mutate hook that just records the batched instance so the test
    can read its executor stats after the differential run."""

    def hook(reference, batched, batch_index):
        holder["instance"] = batched

    return hook


def test_meter_attach_mid_run_revokes_and_stays_exact():
    program = base_infrastructure()
    packets = fastpath.seeded_corpus(160, seed=29)
    holder = {}

    def mutate(reference, batched, batch_index):
        holder["instance"] = batched
        if batch_index == 2:
            meter = lambda: Meter(MeterConfig(rate_pps=50.0, burst_packets=4.0))
            reference.rules["l2"].meter = meter()
            batched.rules["l2"].meter = meter()

    report = batched_differential(
        program,
        packets,
        setup=seeded_setup(program),
        batch_size=32,
        mutate=mutate,
    )
    assert not report.divergences, "\n".join(
        str(d) for d in report.divergences[:5]
    )
    stats = holder["instance"].batch_executor().stats
    assert stats.revoked_batches > 0
    assert stats.fallback_packets > 0


def test_rule_mutation_mid_run_flushes_memo_and_stays_exact():
    program = base_infrastructure()
    hosted = stateless_slice(program)
    # A small flow mix tiled out, so observation keys repeat and the
    # memo actually serves hits before and after the flush.
    flows = fastpath.seeded_corpus(8, seed=31)
    packets = [flows[i % len(flows)] for i in range(160)]
    holder = {}

    def mutate(reference, batched, batch_index):
        holder["instance"] = batched
        if batch_index == 2:
            rule = lambda: Rule(
                matches=(exact(0xBEEF),), action=ActionCall("forward", (1,))
            )
            reference.rules["l2"].insert(rule())
            batched.rules["l2"].insert(rule())

    report = batched_differential(
        program,
        packets,
        hosted_elements=hosted,
        setup=seeded_setup(program),
        batch_size=32,
        mutate=mutate,
    )
    assert not report.divergences, "\n".join(
        str(d) for d in report.divergences[:5]
    )
    stats = holder["instance"].batch_executor().stats
    assert stats.memo.invalidations > 0
    assert stats.memo.entries_dropped > 0
    assert stats.memo_hits > 0  # the memo kept serving after the flush
