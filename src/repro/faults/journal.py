"""Write-ahead reconfiguration journal (FlexFault recovery).

Transactional delta application for the controller: before a device's
transition window opens, the orchestrator journals the *intent*
(old version -> new version, window bounds); only once the window
closes cleanly is the entry committed. A device that crashes mid-delta
therefore leaves a PENDING entry behind, and the
:class:`~repro.faults.recovery.RecoveryManager` uses it on restart to
either **resume** (finish the cut-over to the new version) or **roll
back** (retire the staged version) — never to leave the device in a
mixed old/new state.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class TxnState(enum.Enum):
    PENDING = "pending"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"


@dataclass
class JournalEntry:
    txn_id: int
    device: str
    old_version: int
    new_version: int
    started_at: float
    window_end: float
    state: TxnState = TxnState.PENDING
    resolved_at: float | None = None
    #: how the entry left PENDING: "window_closed", "resume", "rollback".
    resolution: str | None = None
    #: FlexHA idempotence: the Raft-committed delta this window realizes
    #: (None when the controller is unreplicated). A re-elected leader
    #: re-driving the log skips delta ids already journaled here.
    delta_id: int | None = None

    def to_dict(self) -> dict:
        return {
            "txn": self.txn_id,
            "device": self.device,
            "old_version": self.old_version,
            "new_version": self.new_version,
            "started_at": round(self.started_at, 6),
            "window_end": round(self.window_end, 6),
            "state": self.state.value,
            "resolved_at": None if self.resolved_at is None else round(self.resolved_at, 6),
            "resolution": self.resolution,
            "delta_id": self.delta_id,
        }


@dataclass
class ReconfigJournal:
    """Per-reconfiguration write-ahead journal, one entry per device
    window. Append-only; entries transition PENDING -> COMMITTED or
    PENDING -> ROLLED_BACK exactly once."""

    entries: list[JournalEntry] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)

    def begin(
        self,
        device: str,
        old_version: int,
        new_version: int,
        started_at: float,
        window_end: float,
        delta_id: int | None = None,
    ) -> JournalEntry:
        entry = JournalEntry(
            txn_id=next(self._ids),
            device=device,
            old_version=old_version,
            new_version=new_version,
            started_at=started_at,
            window_end=window_end,
            delta_id=delta_id,
        )
        self.entries.append(entry)
        return entry

    def commit(self, entry: JournalEntry, now: float, resolution: str = "window_closed") -> None:
        if entry.state is not TxnState.PENDING:
            return
        entry.state = TxnState.COMMITTED
        entry.resolved_at = now
        entry.resolution = resolution

    def rollback(self, entry: JournalEntry, now: float) -> None:
        if entry.state is not TxnState.PENDING:
            return
        entry.state = TxnState.ROLLED_BACK
        entry.resolved_at = now
        entry.resolution = "rollback"

    def pending_for(self, device: str) -> JournalEntry | None:
        """The latest unresolved entry for a device (None when clean)."""
        for entry in reversed(self.entries):
            if entry.device == device and entry.state is TxnState.PENDING:
                return entry
        return None

    @property
    def pending(self) -> list[JournalEntry]:
        return [e for e in self.entries if e.state is TxnState.PENDING]

    def committed_by(self) -> float | None:
        """Latest commit time across entries, or None if nothing committed."""
        times = [
            e.resolved_at
            for e in self.entries
            if e.state is TxnState.COMMITTED and e.resolved_at is not None
        ]
        return max(times) if times else None

    def to_dict(self) -> list[dict]:
        return [entry.to_dict() for entry in self.entries]
