"""FlexBatch differential properties: for **every** bundled program —
whole programs on the per-packet fallback, stateless hosted slices on
the memo tier — batched execution is bit-identical to the tree-walking
interpreter at every batch size, including size 1, a prime that
straddles chunk boundaries, the default 64, and a batch larger than the
memo capacity (FIFO eviction mid-batch). Live revocation — a meter
attaching or a rule mutating *between* batches — must also preserve
bit-identity while the executor's revocation counters fire."""

import pytest

from repro.analysis.corpus import bundled_programs
from repro.analysis.dataflow import analyze
from repro.analysis.vet import vet
from repro.apps import base_infrastructure
from repro.lang.ir import ActionCall
from repro.simulator import fastpath
from repro.simulator.batch import batched_differential
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, exact

PROGRAMS = bundled_programs()
#: the memo-eviction size: BatchExecutor memo capacity is 4096, so one
#: batch of 4097 distinct-key packets forces FIFO eviction mid-batch —
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


def test_batched_matches_interpreter_beyond_memo_capacity():
    """One batch larger than the memo capacity on the cacheable hosted
    slice: FIFO eviction happens mid-batch and stays bit-exact."""
    program = base_infrastructure()
    info = analyze(program)
    hosted = {
        name for name in info.applied if not info.element_access(name).map_writes
    }
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
    batch-safe bundled program run the memo tier bit-exactly."""
    for label, program in PROGRAMS:
        if not vet(program).batch_safe:
            continue
        info = analyze(program)
        hosted = {
            name
            for name in info.applied
            if not info.element_access(name).map_writes
        }
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
    info = analyze(program)
    hosted = {
        name for name in info.applied if not info.element_access(name).map_writes
    }
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
    assert stats.revocations > 0
    assert stats.memo_entries_dropped > 0
    assert stats.memo_hits > 0  # the memo kept serving after the flush
