"""Per-silo write-ahead redo journal: bounded-loss durability for lazy writers.

The paper's benchmarked ``ON_DEACTIVATE`` policy (and the cheaper
``INTERVAL`` policy) trade durability for write capacity: a crash loses
everything since the last flush.  The :class:`RedoJournal` turns that
unbounded window into a configurable one — a background pump snapshots
dirty durable actors every ``redo_lag`` virtual seconds and appends their
state documents here, and :class:`~repro.runtime.persistence.StateCell`
replays the journal suffix on re-activation.

Replay is *fenced*: each record carries the appending activation's fence
token and the etag its document was based on, and a successor only applies
a record when

- ``base_etag`` matches the etag it just loaded from the store (the record
  really is the missing suffix, not a stale divergent branch), and
- the record's fence is not newer than the successor's own (a record from
  the future would mean the journal outlived a later activation — apply
  nothing rather than guess).

Journal appends ride the existing group-commit path when a writer is
supplied, so WAL traffic coalesces with state flushes instead of doubling
round trips.  The in-memory index is authoritative for replay (a redo log
is only read after a failure, and this simulation's "disk" is the process);
durable copies land under the ``wal/`` key prefix for inspection.  Records
are truncated on successful state flush; garbage-collecting the durable
copies is deliberately out of scope (real systems recycle segments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .serde import snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel.scheduler import Scheduler
    from .groupcommit import GroupCommitWriter
    from .kv import KeyValueStore

__all__ = ["RedoJournal", "RedoRecord"]


@dataclass(frozen=True)
class RedoRecord:
    """One journaled state document: enough to redo a lost flush."""

    key: str
    seq: int
    fence: int | None
    base_etag: int
    document: Any
    appended_at: float


class RedoJournal:
    """An append-only redo log indexed by grain storage key."""

    #: Counters the owning runtime exports as ``wal.<name>`` probes (beside
    #: ``wal.pending_records``, read through :meth:`pending_records`).
    METRIC_FIELDS = (
        "appends", "skipped_appends", "replayed_records", "truncated_records",
    )

    def __init__(
        self,
        scheduler: "Scheduler",
        store: "KeyValueStore | None" = None,
        writer: "GroupCommitWriter | None" = None,
    ) -> None:
        self._scheduler = scheduler
        self._store = store
        self._writer = writer
        self._records: dict[str, list[RedoRecord]] = {}
        self._seq = 0
        self._fence_floors: dict[str, int] = {}
        self.appends = 0
        self.skipped_appends = 0
        self.replayed_records = 0
        self.truncated_records = 0
        #: Optional flight-recorder ring (duck-typed; obs never imported here).
        self.journal = None

    # -- writing -------------------------------------------------------------

    async def append(
        self, key: str, document: Any, base_etag: int, fence: int | None = None
    ) -> RedoRecord | None:
        """Journal one dirty state document; returns the record, or None.

        Consecutive identical documents are deduplicated (the pump runs on a
        timer, not on change notifications, so an idle-but-dirty actor would
        otherwise re-journal the same bytes every tick).
        """
        floor = self._fence_floors.get(key)
        if fence is not None and floor is not None and fence < floor:
            # A successor already took over this grain; the zombie's journal
            # entry must not become its resurrection vector.
            self.skipped_appends += 1
            return None
        tail = self._records.get(key)
        if tail and tail[-1].document == document and tail[-1].fence == fence:
            self.skipped_appends += 1
            return None
        self._seq += 1
        record = RedoRecord(
            key=key,
            seq=self._seq,
            fence=fence,
            base_etag=base_etag,
            document=snapshot(document),
            appended_at=self._scheduler.now,
        )
        self._records.setdefault(key, []).append(record)
        self.appends += 1
        journal = self.journal
        if journal is not None:
            journal.record("wal-append", key, record.seq)
        await self._persist(record)
        return record

    async def _persist(self, record: RedoRecord) -> None:
        payload = {
            "key": record.key,
            "seq": record.seq,
            "fence": record.fence,
            "base_etag": record.base_etag,
            "document": record.document,
            "appended_at": record.appended_at,
        }
        wal_key = f"wal/{record.key}/{record.seq}"
        if self._writer is not None:
            await self._writer.put(wal_key, payload)
        elif self._store is not None:
            await self._store.put(wal_key, payload)

    # -- recovery ------------------------------------------------------------

    def advance_fence(self, key: str, fence: int | None) -> None:
        """Raise the journal's fence floor for ``key`` (successor took over)."""
        if fence is None:
            return
        floor = self._fence_floors.get(key)
        if floor is None or fence > floor:
            self._fence_floors[key] = fence

    def replay_for(
        self, key: str, stored_etag: int, fence: int | None
    ) -> RedoRecord | None:
        """The newest record a re-activating cell may safely apply.

        ``stored_etag`` is the etag the cell just loaded (0 when the key is
        absent); ``fence`` is the successor's own token.  Records based on a
        different etag are stale branches; records fenced *newer* than the
        caller are from a later activation and are never applied.
        """
        best: RedoRecord | None = None
        for record in self._records.get(key, ()):
            if record.base_etag != stored_etag:
                continue
            if fence is not None and record.fence is not None and record.fence > fence:
                continue
            if best is None or record.seq > best.seq:
                best = record
        if best is not None:
            self.replayed_records += 1
            journal = self.journal
            if journal is not None:
                journal.record("wal-replay", key, best.seq)
        return best

    def truncate(self, key: str) -> int:
        """Drop every in-memory record for ``key`` (its state just flushed)."""
        dropped = len(self._records.pop(key, ()))
        self.truncated_records += dropped
        if dropped:
            journal = self.journal
            if journal is not None:
                journal.record("wal-truncate", key, dropped)
        return dropped

    def pending_records(self, key: str | None = None) -> int:
        """Journal depth, overall or for one key (introspection helper)."""
        if key is not None:
            return len(self._records.get(key, ()))
        return sum(len(records) for records in self._records.values())
