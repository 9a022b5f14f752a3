"""Soundness of the FlexVet parallelism classifier.

FlexVet's verdicts are static promises about runtime behaviour, so for
every bundled program the dynamics must be contained in the statics:

* every map the interpreter actually mutates is in the classifier's
  stateful (``per_flow`` ∪ ``cross_flow``) set;
* for a ``per_flow`` map, every runtime access key is built from the
  claimed partition fields of the packet being processed (the property
  a FlexScale shard relies on to own a slice of the field space);
* every ``batch_safe=True`` program passes the FlexPath differential
  check with zero divergences (compiled vs interpreted agreement is a
  precondition for ever batching the compiled path);
* cacheable ⇒ stateless ⇒ batch-safe on every hosted slice, which is
  why the outcome memo's own verdict is the whole batching gate.
"""

from __future__ import annotations

import pytest

from repro.analysis.cacheability import decide
from repro.analysis.corpus import bundled_programs
from repro.analysis.dataflow import analyze
from repro.analysis.vet import StateClass, vet
from repro.simulator import fastpath
from repro.simulator.pipeline_exec import ProgramInstance

PROGRAMS = bundled_programs()
PROGRAM_IDS = [label for label, _ in PROGRAMS]


class _Recorder:
    """Wraps one MapState, logging every runtime access key."""

    def __init__(self, state, log):
        self._state = state
        self._log = log

    def get(self, key, default=0):
        self._log.append((self._state.name, "read", tuple(key)))
        return self._state.get(key, default)

    def put(self, key, value):
        self._log.append((self._state.name, "write", tuple(key)))
        return self._state.put(key, value)

    def delete(self, key):
        self._log.append((self._state.name, "write", tuple(key)))
        return self._state.delete(key)

    def __getattr__(self, name):
        return getattr(self._state, name)

    def __contains__(self, key):
        return key in self._state

    def __len__(self):
        return len(self._state)


def recorded_run(program, packets, seed=13):
    """Execute ``packets`` through the interpreter with every map access
    recorded; returns [(packet, [(map, kind, key), ...]), ...]."""
    instance = ProgramInstance(program)
    fastpath.seeded_rules(program, instance, seed=seed)
    log: list = []
    states = instance.maps._states  # noqa: SLF001 - test instrumentation
    for name in list(states):
        states[name] = _Recorder(states[name], log)
    observed = []
    for index, packet in enumerate(packets):
        log.clear()
        initial_fields = dict(packet.fields)
        instance.process(packet, now=index * 1e-4)
        observed.append((initial_fields, list(log)))
    return observed


def field_key(dotted: str) -> tuple[str, str]:
    header, _, field = dotted.partition(".")
    return (header, field)


@pytest.mark.parametrize("label,program", PROGRAMS, ids=PROGRAM_IDS)
def test_runtime_writes_contained_in_static_stateful(label, program):
    report = vet(program)
    stateful = set(report.stateful_maps)
    observed = recorded_run(program, fastpath.seeded_corpus(200, seed=5))
    written = {
        name
        for _, accesses in observed
        for name, kind, _ in accesses
        if kind == "write"
    }
    assert written <= stateful, (
        f"{label}: runtime wrote {sorted(written - stateful)} "
        f"outside the static stateful set {sorted(stateful)}"
    )


@pytest.mark.parametrize("label,program", PROGRAMS, ids=PROGRAM_IDS)
def test_per_flow_keys_are_the_claimed_partition_fields(label, program):
    report = vet(program)
    arity = {m.name: len(m.key_fields) for m in program.maps}
    # Check maps whose whole key signature is packet fields — for those
    # partition_fields aligns positionally with the runtime key.
    checkable = {
        v.name: [field_key(f) for f in v.partition_fields]
        for v in report.maps
        if v.state_class is StateClass.PER_FLOW
        and len(v.partition_fields) == arity[v.name]
    }
    observed = recorded_run(program, fastpath.seeded_corpus(200, seed=9))
    checked = 0
    for initial_fields, accesses in observed:
        for name, _, key in accesses:
            fields = checkable.get(name)
            if fields is None or len(fields) != len(key):
                continue
            for part, field in zip(key, fields):
                # An invisible header reads as 0 in the interpreter, so
                # the key part is either the ingress field value or 0.
                assert part in (initial_fields.get(field, 0), 0), (
                    f"{label}: map {name!r} keyed by {part!r} at position "
                    f"{field}, packet carried {initial_fields.get(field)!r}"
                )
                checked += 1
    if checkable:
        assert checked, f"{label}: no per-flow accesses exercised"


@pytest.mark.parametrize("label,program", PROGRAMS, ids=PROGRAM_IDS)
def test_batch_safe_programs_pass_differential_check(label, program):
    report = vet(program)
    if not report.batch_safe:
        pytest.skip(f"{label} is not batch-safe")
    packets = fastpath.seeded_corpus(150, seed=21)

    def setup(instance):
        fastpath.seeded_rules(program, instance, seed=17)

    diff = fastpath.differential_check(program, packets, setup=setup)
    assert diff.packets > 0
    assert not diff.divergences, "\n".join(str(d) for d in diff.divergences)


@pytest.mark.parametrize("label,program", PROGRAMS, ids=PROGRAM_IDS)
def test_cacheable_slices_are_stateless_and_batch_safe(label, program):
    """The memo refuses exactly what batching must refuse: on every
    single-element slice and on the stateless slice, a cacheable slice is
    one FlexVet calls stateless and batch-safe."""
    info = analyze(program)
    slices = [{name} for name in sorted(info.applied)]
    slices.append(
        {name for name in info.applied if not info.element_access(name).map_writes}
    )
    cacheable = 0
    for hosted in slices:
        if not hosted or not decide(program, hosted).cacheable:
            continue
        cacheable += 1
        report = vet(program, hosted)
        assert report.stateless and report.batch_safe, (label, sorted(hosted))
    assert cacheable, f"{label}: no cacheable slice exercised"


def test_classifier_is_deterministic():
    """Same program → identical report (a meta-check: the classifier
    itself must not exhibit the nondeterminism it polices)."""
    for label, program in PROGRAMS:
        assert vet(program).to_dict() == vet(program).to_dict(), label
