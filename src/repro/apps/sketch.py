"""Count-min sketch monitoring (the paper's stateful-migration example).

§3.4 motivates data-plane state migration with "a stateful network app
(e.g., one that maintains a count-min sketch). As the sketch state is
updated for each packet, copying state via control plane software is
impossible." This module provides:

* :func:`count_min_delta` — injects a D-row x W-column count-min sketch
  keyed by source address. Each row is one logical map indexed by an
  independent hash (row index is salted into the hash operands).
* :class:`SketchReader` — controller-side estimate: the minimum across
  rows, read through P4Runtime.
"""

from __future__ import annotations

from repro.control.p4runtime import P4RuntimeClient
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import AddFunction, AddMap, Delta, InsertApply
from repro.lang.types import BitsType
from repro.util import stable_hash


def row_map_name(row: int) -> str:
    return f"cms_row{row}"


def count_min_delta(
    rows: int = 3,
    width: int = 4096,
    key_field: str = "ipv4.src",
    anchor: str | None = None,
) -> Delta:
    """Build the count-min sketch injection delta.

    Rows hash the key with different salts; the update function
    increments one counter per row per packet — exactly the per-packet
    mutation rate that makes control-plane copying hopeless.
    """
    if rows < 1 or width < 2:
        raise ValueError("need at least 1 row and width >= 2")
    # Each row map is declared with the sketch key field for placement
    # and demand purposes, but is physically indexed by a salted hash of
    # that field modulo the row width (register-array semantics).
    ops: list = []
    body: list[ir.Stmt] = []
    for row in range(rows):
        ops.append(
            AddMap(
                ir.MapDef(
                    name=row_map_name(row),
                    key_fields=(b.field(key_field),),
                    value_type=BitsType(64),
                    max_entries=width,
                    persistence=ir.Persistence.DURABLE,
                )
            )
        )
        salt = stable_hash((row, 0xC0FFEE)) % (1 << 32)
        index = b.hash_of(key_field, salt, modulus=width)
        body.append(b.let(f"i{row}", "u32", index))
        body.append(
            b.map_put(
                row_map_name(row),
                f"i{row}",
                b.binop("+", b.map_get(row_map_name(row), f"i{row}"), 1),
            )
        )
    ops.append(AddFunction(ir.FunctionDef(name="cms_update", body=tuple(body))))
    ops.append(InsertApply(element="cms_update", position="after", anchor=anchor))
    return Delta(name="count_min_sketch", ops=tuple(ops))


class SketchReader:
    """Controller-side count-min estimates over P4Runtime."""

    def __init__(self, client: P4RuntimeClient, rows: int = 3, width: int = 4096):
        self._client = client
        self._rows = rows
        self._width = width

    def estimate(self, key: int) -> int:
        """The count-min estimate for one key (min across rows)."""
        best: int | None = None
        for row in range(self._rows):
            salt = stable_hash((row, 0xC0FFEE)) % (1 << 32)
            index = stable_hash((key, salt)) % self._width
            value = self._client.read_map_entry(row_map_name(row), (index,))
            best = value if best is None else min(best, value)
        return best or 0

    def heavy_keys(self, candidates: list[int], threshold: int) -> list[int]:
        return [key for key in candidates if self.estimate(key) >= threshold]
