"""Raft consensus for physically distributed controllers (§3.4).

"For large networks, logically centralized controllers are realized in
physically distributed nodes, which brings classic distributed systems
concerns on consensus and availability." This module is a
self-contained Raft implementation (leader election, log replication,
majority commit) running over a simulated message bus inside the event
loop, so controller replicas can keep piloting the network across node
failures and partitions (experiment E11).

The implementation follows the Raft paper's state machine closely
enough to exhibit its safety/liveness behaviour: terms, randomized
election timeouts, AppendEntries consistency checks, and commit only of
current-term entries via majority match indexes. Log compaction via
snapshots is implemented (FlexHA uses it for fast follower catch-up):
a node whose applied suffix exceeds ``snapshot_threshold`` folds the
applied prefix into a :class:`RaftSnapshot` and truncates its log, and
a leader whose next entry for a lagging follower has already been
compacted ships the snapshot (:class:`InstallSnapshot`) instead of
replaying the log. Membership changes remain out of scope.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ConsensusError
from repro.limits import ELECTION_TIMEOUT_RANGE_S, HEARTBEAT_INTERVAL_S
from repro.simulator.engine import EventLoop
from repro.util import stable_hash

__all__ = [
    "ELECTION_TIMEOUT_RANGE_S",
    "HEARTBEAT_INTERVAL_S",
    "AppendEntries",
    "AppendReply",
    "ControllerCluster",
    "InstallSnapshot",
    "LogEntry",
    "MessageBus",
    "RaftNode",
    "RaftSnapshot",
    "RequestVote",
    "Role",
    "SnapshotReply",
    "VoteReply",
    "node_seed",
]


def node_seed(node_id: str, seed: int) -> int:
    """The RNG seed for one Raft node.

    Derived with :func:`~repro.util.stable_hash` over the node id's
    bytes — Python's builtin ``hash`` of a str is salted per process
    (PYTHONHASHSEED), which would make same-seed elections diverge
    across processes.
    """
    return stable_hash((seed, *node_id.encode())) & 0xFFFFFFFF


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass(frozen=True)
class LogEntry:
    term: int
    command: object


@dataclass(frozen=True)
class RequestVote:
    term: int
    candidate: str
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True)
class VoteReply:
    term: int
    voter: str
    granted: bool


@dataclass(frozen=True)
class AppendEntries:
    term: int
    leader: str
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int


@dataclass(frozen=True)
class AppendReply:
    term: int
    follower: str
    success: bool
    match_index: int


@dataclass(frozen=True)
class RaftSnapshot:
    """The state machine folded up to (and including) ``last_index``.

    ``commands`` is the full applied command sequence — enough for a
    fresh follower to reconstruct its state machine without replaying
    the (discarded) log prefix.
    """

    last_index: int
    last_term: int
    commands: tuple[object, ...]


@dataclass(frozen=True)
class InstallSnapshot:
    """Leader -> lagging follower: catch up from a snapshot."""

    term: int
    leader: str
    snapshot: RaftSnapshot


@dataclass(frozen=True)
class SnapshotReply:
    term: int
    follower: str
    last_index: int


class MessageBus:
    """Delivers messages between nodes with latency; supports crashes
    and partitions."""

    def __init__(self, loop: EventLoop, latency_s: float = 0.005):
        self._loop = loop
        self.latency_s = latency_s
        self._nodes: dict[str, "RaftNode"] = {}
        self._crashed: set[str] = set()
        self._partitions: list[set[str]] = []
        self.messages_sent = 0

    def attach(self, node: "RaftNode") -> None:
        self._nodes[node.node_id] = node

    def crash(self, node_id: str) -> None:
        self._crashed.add(node_id)

    def recover(self, node_id: str) -> None:
        self._crashed.discard(node_id)
        node = self._nodes[node_id]
        node.on_recover()

    def partition(self, *groups: set[str]) -> None:
        self._partitions = [set(group) for group in groups]

    def heal(self) -> None:
        self._partitions = []

    def reachable(self, source: str, destination: str) -> bool:
        if source in self._crashed or destination in self._crashed:
            return False
        if not self._partitions:
            return True
        for group in self._partitions:
            if source in group:
                return destination in group
        return True

    def send(self, source: str, destination: str, message: object) -> None:
        self.messages_sent += 1
        if not self.reachable(source, destination):
            return
        node = self._nodes.get(destination)
        if node is None:
            return
        self._loop.schedule(
            self.latency_s, lambda: node.receive(source, message) if destination not in self._crashed else None
        )

    @property
    def now(self) -> float:
        return self._loop.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self._loop.schedule(delay, callback)


class RaftNode:
    """One controller replica."""

    def __init__(
        self,
        node_id: str,
        peers: list[str],
        bus: MessageBus,
        apply_callback: Callable[[object], None] | None = None,
        seed: int = 0,
        snapshot_threshold: int | None = None,
    ):
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self._bus = bus
        self._rng = random.Random(node_seed(node_id, seed))
        self._apply = apply_callback

        self.role = Role.FOLLOWER
        self.current_term = 0
        self.voted_for: str | None = None
        self.log: list[LogEntry] = []
        self.commit_index = 0  # 1-based; 0 == nothing committed
        self.last_applied = 0
        self.applied_commands: list[object] = []
        #: log compaction: entries 1..log_offset live in ``snapshot``;
        #: ``log[i]`` holds entry index ``log_offset + i + 1``.
        self.log_offset = 0
        self.snapshot: RaftSnapshot | None = None
        #: compact once more than this many applied entries are in the
        #: log (None disables compaction).
        self.snapshot_threshold = snapshot_threshold
        self.snapshots_taken = 0
        self.snapshots_installed = 0

        self._votes: set[str] = set()
        self._next_index: dict[str, int] = {}
        self._match_index: dict[str, int] = {}
        self._election_deadline = 0.0
        self._crashed = False

        bus.attach(self)
        self._reset_election_timer()
        self._tick()

    # -- helpers --------------------------------------------------------------

    @property
    def last_log_index(self) -> int:
        return self.log_offset + len(self.log)

    @property
    def last_log_term(self) -> int:
        if self.log:
            return self.log[-1].term
        return self.snapshot.last_term if self.snapshot is not None else 0

    def _term_at(self, index: int) -> int:
        if index == 0:
            return 0
        if index == self.log_offset:
            return self.snapshot.last_term if self.snapshot is not None else 0
        return self.log[index - self.log_offset - 1].term

    def _reset_election_timer(self) -> None:
        timeout = self._rng.uniform(*ELECTION_TIMEOUT_RANGE_S)
        self._election_deadline = self._bus.now + timeout

    def on_recover(self) -> None:
        self._crashed = False
        self.role = Role.FOLLOWER
        self._reset_election_timer()

    def _tick(self) -> None:
        self._bus.schedule(HEARTBEAT_INTERVAL_S / 2, self._on_tick)

    def _on_tick(self) -> None:
        if not self._bus.reachable(self.node_id, self.node_id):
            self._crashed = True
        else:
            self._crashed = False
            if self.role is Role.LEADER:
                self._broadcast_append()
            elif self._bus.now >= self._election_deadline:
                self._start_election()
        self._tick()

    # -- elections ---------------------------------------------------------------

    def _start_election(self) -> None:
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self._reset_election_timer()
        request = RequestVote(
            term=self.current_term,
            candidate=self.node_id,
            last_log_index=self.last_log_index,
            last_log_term=self.last_log_term,
        )
        for peer in self.peers:
            self._bus.send(self.node_id, peer, request)
        self._maybe_win()

    def _maybe_win(self) -> None:
        majority = (len(self.peers) + 1) // 2 + 1
        if self.role is Role.CANDIDATE and len(self._votes) >= majority:
            self.role = Role.LEADER
            self._next_index = {p: self.last_log_index + 1 for p in self.peers}
            self._match_index = {p: 0 for p in self.peers}
            self._broadcast_append()

    # -- log replication --------------------------------------------------------------

    def propose(self, command: object) -> int:
        """Leader-only: append a command; returns its log index."""
        if self.role is not Role.LEADER:
            raise ConsensusError(f"{self.node_id} is not the leader")
        self.log.append(LogEntry(term=self.current_term, command=command))
        self._broadcast_append()
        self._advance_commit()
        return self.last_log_index

    def _broadcast_append(self) -> None:
        for peer in self.peers:
            next_index = self._next_index.get(peer, self.last_log_index + 1)
            if self.snapshot is not None and next_index <= self.log_offset:
                # The entries this follower needs were compacted away:
                # ship the snapshot instead of replaying the log.
                self._bus.send(
                    self.node_id,
                    peer,
                    InstallSnapshot(
                        term=self.current_term,
                        leader=self.node_id,
                        snapshot=self.snapshot,
                    ),
                )
                continue
            prev_index = next_index - 1
            entries = tuple(self.log[prev_index - self.log_offset:])
            message = AppendEntries(
                term=self.current_term,
                leader=self.node_id,
                prev_log_index=prev_index,
                prev_log_term=self._term_at(prev_index),
                entries=entries,
                leader_commit=self.commit_index,
            )
            self._bus.send(self.node_id, peer, message)

    # -- message handling ---------------------------------------------------------------

    def receive(self, source: str, message: object) -> None:
        if self._crashed:
            return
        if isinstance(message, RequestVote):
            self._on_request_vote(message)
        elif isinstance(message, VoteReply):
            self._on_vote_reply(message)
        elif isinstance(message, AppendEntries):
            self._on_append(message)
        elif isinstance(message, AppendReply):
            self._on_append_reply(message)
        elif isinstance(message, InstallSnapshot):
            self._on_install_snapshot(message)
        elif isinstance(message, SnapshotReply):
            self._on_snapshot_reply(message)

    def _observe_term(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self.role = Role.FOLLOWER
            self.voted_for = None

    def _on_request_vote(self, message: RequestVote) -> None:
        self._observe_term(message.term)
        up_to_date = (message.last_log_term, message.last_log_index) >= (
            self.last_log_term,
            self.last_log_index,
        )
        granted = (
            message.term == self.current_term
            and self.voted_for in (None, message.candidate)
            and up_to_date
        )
        if granted:
            self.voted_for = message.candidate
            self._reset_election_timer()
        self._bus.send(
            self.node_id,
            message.candidate,
            VoteReply(term=self.current_term, voter=self.node_id, granted=granted),
        )

    def _on_vote_reply(self, message: VoteReply) -> None:
        self._observe_term(message.term)
        if self.role is Role.CANDIDATE and message.granted and message.term == self.current_term:
            self._votes.add(message.voter)
            self._maybe_win()

    def _on_append(self, message: AppendEntries) -> None:
        self._observe_term(message.term)
        if message.term < self.current_term:
            self._bus.send(
                self.node_id,
                message.leader,
                AppendReply(
                    term=self.current_term,
                    follower=self.node_id,
                    success=False,
                    match_index=0,
                ),
            )
            return
        self.role = Role.FOLLOWER
        self._reset_election_timer()
        # Entries at or below our snapshot point are committed by
        # definition; skip the overlapping prefix instead of failing the
        # consistency check against compacted indexes.
        prev_index = message.prev_log_index
        entries = message.entries
        if prev_index < self.log_offset:
            skip = self.log_offset - prev_index
            entries = entries[skip:] if skip < len(entries) else ()
            prev_index = self.log_offset
        # Consistency check.
        if prev_index > self.last_log_index or (
            self._term_at(prev_index) != message.prev_log_term
        ):
            self._bus.send(
                self.node_id,
                message.leader,
                AppendReply(
                    term=self.current_term,
                    follower=self.node_id,
                    success=False,
                    match_index=0,
                ),
            )
            return
        # Append, truncating conflicts.
        index = prev_index
        for entry in entries:
            local = index - self.log_offset
            if index < self.last_log_index and self.log[local].term != entry.term:
                del self.log[local:]
            if index >= self.last_log_index:
                self.log.append(entry)
            index += 1
        if message.leader_commit > self.commit_index:
            self.commit_index = min(message.leader_commit, self.last_log_index)
            self._apply_committed()
        self._bus.send(
            self.node_id,
            message.leader,
            AppendReply(
                term=self.current_term,
                follower=self.node_id,
                success=True,
                match_index=message.prev_log_index + len(message.entries),
            ),
        )

    def _on_install_snapshot(self, message: InstallSnapshot) -> None:
        self._observe_term(message.term)
        if message.term < self.current_term:
            return
        self.role = Role.FOLLOWER
        self._reset_election_timer()
        snap = message.snapshot
        if snap.last_index > self.log_offset:
            if (
                snap.last_index <= self.last_log_index
                and self._term_at(snap.last_index) == snap.last_term
            ):
                # Our log already contains the snapshot point: keep the
                # suffix, discard the covered prefix.
                del self.log[: snap.last_index - self.log_offset]
            else:
                # Diverged or too short: the snapshot replaces the log.
                self.log = []
            self.log_offset = snap.last_index
            self.snapshot = snap
            # State-machine catch-up: apply the snapshot commands we had
            # not yet applied (snapshot commands are 1..last_index).
            for command in snap.commands[self.last_applied:]:
                self.applied_commands.append(command)
                if self._apply is not None:
                    self._apply(command)
            self.last_applied = max(self.last_applied, snap.last_index)
            self.commit_index = max(self.commit_index, snap.last_index)
            self.snapshots_installed += 1
        self._bus.send(
            self.node_id,
            message.leader,
            SnapshotReply(
                term=self.current_term,
                follower=self.node_id,
                last_index=self.log_offset,
            ),
        )

    def _on_snapshot_reply(self, message: SnapshotReply) -> None:
        self._observe_term(message.term)
        if self.role is not Role.LEADER or message.term != self.current_term:
            return
        self._match_index[message.follower] = max(
            self._match_index.get(message.follower, 0), message.last_index
        )
        self._next_index[message.follower] = self._match_index[message.follower] + 1

    def _on_append_reply(self, message: AppendReply) -> None:
        self._observe_term(message.term)
        if self.role is not Role.LEADER or message.term != self.current_term:
            return
        if message.success:
            self._match_index[message.follower] = max(
                self._match_index.get(message.follower, 0), message.match_index
            )
            self._next_index[message.follower] = self._match_index[message.follower] + 1
            self._advance_commit()
        else:
            self._next_index[message.follower] = max(
                1, self._next_index.get(message.follower, 1) - 1
            )

    def _advance_commit(self) -> None:
        majority = (len(self.peers) + 1) // 2 + 1
        for index in range(self.last_log_index, self.commit_index, -1):
            if self._term_at(index) != self.current_term:
                continue
            votes = 1 + sum(
                1 for match in self._match_index.values() if match >= index
            )
            if votes >= majority:
                self.commit_index = index
                self._apply_committed()
                break

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            command = self.log[self.last_applied - 1 - self.log_offset].command
            self.applied_commands.append(command)
            if self._apply is not None:
                self._apply(command)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self.snapshot_threshold is None:
            return
        applied_in_log = self.last_applied - self.log_offset
        if applied_in_log < self.snapshot_threshold:
            return
        last_index = self.last_applied
        self.snapshot = RaftSnapshot(
            last_index=last_index,
            last_term=self._term_at(last_index),
            commands=tuple(self.applied_commands),
        )
        del self.log[: last_index - self.log_offset]
        self.log_offset = last_index
        self.snapshots_taken += 1


class ControllerCluster:
    """A replicated controller: N Raft nodes piloting one network.

    Commands proposed through :meth:`submit` are linearized by Raft and
    applied on every replica; :meth:`leader` finds the current leader
    (None during elections).
    """

    def __init__(
        self,
        loop: EventLoop,
        node_count: int = 3,
        apply_callback: Callable[[object], None] | None = None,
        latency_s: float = 0.005,
        seed: int = 0,
        apply_factory: Callable[[str], Callable[[object], None]] | None = None,
        snapshot_threshold: int | None = None,
    ):
        if node_count < 1:
            raise ConsensusError("need at least one controller node")
        self.loop = loop
        self.bus = MessageBus(loop, latency_s=latency_s)
        node_ids = [f"ctl{i}" for i in range(node_count)]
        self.nodes = {
            node_id: RaftNode(
                node_id,
                node_ids,
                self.bus,
                apply_factory(node_id) if apply_factory is not None else apply_callback,
                seed=seed,
                snapshot_threshold=snapshot_threshold,
            )
            for node_id in node_ids
        }

    def leader(self) -> RaftNode | None:
        leaders = [
            node
            for node in self.nodes.values()
            if node.role is Role.LEADER and self.bus.reachable(node.node_id, node.node_id)
        ]
        if not leaders:
            return None
        return max(leaders, key=lambda n: n.current_term)

    def submit(self, command: object) -> bool:
        """Propose via the current leader; False if no leader is known."""
        node = self.leader()
        if node is None:
            return False
        try:
            node.propose(command)
        except ConsensusError:
            return False
        return True

    def committed_commands(self) -> list[object]:
        """Commands applied on a majority-visible node (the leader's
        applied list, or the longest applied list if no leader)."""
        node = self.leader()
        if node is not None:
            return list(node.applied_commands)
        longest = max(self.nodes.values(), key=lambda n: len(n.applied_commands))
        return list(longest.applied_commands)
