"""Runtime map-state tests."""

import pytest

from repro.errors import FlexNetError
from repro.lang import builder as b
from repro.lang.ir import MapDef, Persistence
from repro.lang.maps import MapFullError, MapSet, MapState
from repro.lang.types import BitsType


def make_map(entries=4, persistence=Persistence.DURABLE, value_bits=64):
    return MapState(
        MapDef(
            name="m",
            key_fields=(b.field("h.a"),),
            value_type=BitsType(value_bits),
            max_entries=entries,
            persistence=persistence,
        )
    )


class TestMapState:
    def test_absent_key_reads_zero(self):
        assert make_map().get((1,)) == 0

    def test_put_get_roundtrip(self):
        state = make_map()
        state.put((1,), 42)
        assert state.get((1,)) == 42
        assert (1,) in state

    def test_value_truncated_to_width(self):
        state = make_map(value_bits=8)
        state.put((1,), 300)
        assert state.get((1,)) == 300 & 0xFF

    def test_delete(self):
        state = make_map()
        state.put((1,), 1)
        assert state.delete((1,))
        assert not state.delete((1,))
        assert state.get((1,)) == 0

    def test_durable_full_map_rejects_insert(self):
        state = make_map(entries=2)
        state.put((1,), 1)
        state.put((2,), 2)
        with pytest.raises(MapFullError):
            state.put((3,), 3)

    def test_durable_full_map_allows_update(self):
        state = make_map(entries=2)
        state.put((1,), 1)
        state.put((2,), 2)
        state.put((1,), 99)  # update in place
        assert state.get((1,)) == 99

    def test_ephemeral_full_map_evicts_lru(self):
        state = make_map(entries=2, persistence=Persistence.EPHEMERAL)
        state.put((1,), 1)
        state.put((2,), 2)
        state.get((1,))  # does not refresh (only put moves to end)
        state.put((3,), 3)
        assert (1,) not in state  # oldest inserted evicted
        assert (2,) in state and (3,) in state

    def test_mutation_count_tracks_writes(self):
        state = make_map()
        baseline = state.mutation_count
        state.put((1,), 1)
        state.put((1,), 2)
        state.delete((1,))
        assert state.mutation_count == baseline + 3

    def test_clear(self):
        state = make_map()
        state.put((1,), 1)
        state.clear()
        assert len(state) == 0


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        source = make_map()
        source.put((1,), 10)
        source.put((2,), 20)
        destination = make_map()
        destination.restore(source.snapshot())
        assert destination.get((1,)) == 10
        assert destination.get((2,)) == 20

    def test_snapshot_is_immutable_view(self):
        source = make_map()
        source.put((1,), 10)
        snapshot = source.snapshot()
        source.put((1,), 99)
        assert snapshot.as_dict()[(1,)] == 10

    def test_restore_wrong_map_rejected(self):
        other = MapState(
            MapDef(
                name="other",
                key_fields=(b.field("h.a"),),
                value_type=BitsType(64),
                max_entries=4,
            )
        )
        with pytest.raises(FlexNetError):
            make_map().restore(other.snapshot())

    def test_merge_last_writer(self):
        first = make_map()
        first.put((1,), 1)
        second = make_map()
        second.put((1,), 100)
        first.merge(second.snapshot())
        assert first.get((1,)) == 100

    def test_merge_sum_for_counters(self):
        first = make_map()
        first.put((1,), 5)
        second = make_map()
        second.put((1,), 7)
        second.put((2,), 3)
        first.merge(second.snapshot(), combine="sum")
        assert first.get((1,)) == 12
        assert first.get((2,)) == 3


class TestMapSet:
    def make_set(self):
        defs = (
            MapDef(
                name="a",
                key_fields=(b.field("h.x"),),
                value_type=BitsType(64),
                max_entries=8,
            ),
            MapDef(
                name="b",
                key_fields=(b.field("h.y"),),
                value_type=BitsType(32),
                max_entries=8,
                persistence=Persistence.EPHEMERAL,
            ),
        )
        return MapSet(defs)

    def test_contains_and_names(self):
        maps = self.make_set()
        assert "a" in maps and "b" in maps and "c" not in maps
        assert maps.names() == ["a", "b"]

    def test_unknown_map_raises(self):
        with pytest.raises(FlexNetError):
            self.make_set().state("ghost")

    def test_snapshot_durable_only(self):
        maps = self.make_set()
        maps.state("a").put((1,), 1)
        maps.state("b").put((1,), 1)
        durable = maps.snapshot_all(durable_only=True)
        assert [s.map_name for s in durable] == ["a"]
