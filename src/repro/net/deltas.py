"""Coalescing delta streams for incremental view maintenance.

Materialized views are maintained by *deltas* flowing from the ingestion
write path to the owning view actor.  Emitting one message per insert per
view would double the write path's message count, so deltas from one source
silo to one view shard coalesce: aggregate deltas are a commutative monoid
(count/sum/min/max merge associatively), so every delta emitted within a
bounded window folds into the open buffer and the whole buffer ships as
**one** ``apply_deltas`` message — which then also rides the envelope
batcher like any other invocation.

Exactly-once folding comes from per-stream sequencing, the same watermark
idea the ingest dedup path uses:

- each (source silo → view shard) stream numbers its flushes with a
  monotonically increasing sequence;
- flushes on one stream are **chained** — the next flush departs only after
  the previous one was acked — so arrivals are in order and the shard's
  per-stream high-water mark suffices to drop duplicated deliveries
  (chaos duplication, at-least-once retry resends) without a dedup set;
- the emitting insert awaits the flush ack, so an insert is only
  acknowledged once every registered view durably observed its delta.
  A lost message surfaces as a retry of the *flush* (idempotent by
  sequence), never as a silently diverged view.

The module is pure mechanism: it knows nothing about actors or view
definitions.  The aodb layer (:mod:`repro.aodb.views`) supplies the
``send`` callable that turns a flush into an actor invocation.
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable

from ..fold import merge_fold
from ..kernel.futures import Future
from ..kernel.scheduler import Scheduler

#: One buffered delta row on the wire:
#: ``(group, entity, bucket, count, total, vmin, vmax)``.
DeltaEntry = tuple[str, str, float, int, float, float, float]

#: ``send(shard_id, stream_id, seq, entries)`` delivers one flush and
#: resolves when the shard acked the fold (raising on definitive failure).
SendFn = Callable[[str, str, int, list[DeltaEntry]], Awaitable[Any]]


class _OpenBuffer:
    """Deltas accumulating toward one shard, keyed for mergeability."""

    __slots__ = (
        "entries", "members", "opened_at", "departed", "raw_deltas",
        "seq", "previous", "acked",
    )

    def __init__(self, opened_at: float) -> None:
        # (group, entity, bucket) -> [count, total, vmin, vmax]
        self.entries: dict[tuple[str, str, float], list[float]] = {}
        # (ticket, emitted_at) per contributing emit call.
        self.members: list[tuple[Future[int], float]] = []
        self.opened_at = opened_at
        self.departed = False
        self.raw_deltas = 0
        # Claimed synchronously at seal time (see _seal), so stream order
        # is fixed before any flush task runs.
        self.seq = 0
        self.previous: Future[None] | None = None
        self.acked: Future[None] | None = None


class DeltaCoalescer:
    """Merges same-shard view deltas into sequenced, chained flushes."""

    def __init__(
        self,
        scheduler: Scheduler,
        send: SendFn,
        source: str,
        max_delay: float = 0.0005,
        max_keys: int = 128,
    ) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if max_keys < 1:
            raise ValueError("max_keys must be >= 1")
        self.scheduler = scheduler
        self.send = send
        self.source = source
        self.max_delay = max_delay
        self.max_keys = max_keys
        self._open: dict[str, _OpenBuffer] = {}
        # Per-shard FIFO chain: the next flush departs only after the
        # previous flush's ack, so stream sequences arrive in order.
        self._last_acked: dict[str, Future[None]] = {}
        self._sequences: dict[str, int] = {}
        # In-flight members per shard (for the staleness probe).
        self._inflight: dict[str, list[tuple[Future[int], float]]] = {}
        self.deltas_emitted = 0
        self.flushes = 0
        self.flush_failures = 0

    # -- emission --------------------------------------------------------------

    def emit(
        self,
        shard_id: str,
        group: str,
        entity: str,
        bucket: float,
        delta: list,
    ) -> Future[int]:
        """Buffer one delta toward ``shard_id``; resolves on fold ack.

        ``delta`` is a :mod:`repro.fold` accumulator; it is copied, never
        mutated, so one batch fold can feed several views.

        The returned future carries the flush cohort size (how many raw
        deltas shared the flush), mirroring the envelope batcher's ticket.
        """
        self.deltas_emitted += 1
        now = self.scheduler.now
        ticket: Future[int] = Future("view-delta")
        buffer = self._open.get(shard_id)
        fresh = buffer is None
        if fresh:
            buffer = _OpenBuffer(opened_at=now)
            self._open[shard_id] = buffer
        buffer.raw_deltas += 1
        key = (group, entity, bucket)
        entry = buffer.entries.get(key)
        if entry is None:
            buffer.entries[key] = list(delta)
        else:
            merge_fold(entry, delta)
        buffer.members.append((ticket, now))
        if len(buffer.entries) >= self.max_keys:
            self._seal(shard_id, buffer)
            self.scheduler.spawn(
                self._flush(shard_id, buffer), name=f"view-flush:{shard_id}"
            )
        elif fresh:
            self.scheduler.spawn(
                self._depart_after(shard_id, buffer),
                name=f"view-window:{shard_id}",
            )
        return ticket

    async def _depart_after(self, shard_id: str, buffer: _OpenBuffer) -> None:
        if self.max_delay > 0:
            await self.scheduler.sleep(self.max_delay)
        else:
            # One scheduler round trip so same-instant emissions coalesce.
            await self.scheduler.sleep(0)
        if not buffer.departed:
            self._seal(shard_id, buffer)
            await self._flush(shard_id, buffer)

    def _seal(self, shard_id: str, buffer: _OpenBuffer) -> None:
        """Close the buffer and claim its slot in the stream — synchronously,
        so sequence order matches seal order no matter when flush tasks run."""
        buffer.departed = True
        if self._open.get(shard_id) is buffer:
            del self._open[shard_id]
        buffer.seq = self._sequences.get(shard_id, 0) + 1
        self._sequences[shard_id] = buffer.seq
        buffer.previous = self._last_acked.get(shard_id)
        buffer.acked = Future("view-flush-acked")
        self._last_acked[shard_id] = buffer.acked

    async def _flush(self, shard_id: str, buffer: _OpenBuffer) -> None:
        """Ship one sealed buffer: chained, sequenced, acked."""
        previous = buffer.previous
        acked = buffer.acked
        assert acked is not None
        if previous is not None and not previous.done():
            # In-order delivery per stream: the shard's watermark dedup is
            # only sound because sequence N+1 never overtakes N.
            await previous
        seq = buffer.seq
        entries: list[DeltaEntry] = [
            (group, entity, bucket, int(stats[0]), stats[1], stats[2], stats[3])
            for (group, entity, bucket), stats in sorted(buffer.entries.items())
        ]
        inflight = self._inflight.setdefault(shard_id, [])
        inflight.extend(buffer.members)
        self.flushes += 1
        cohort = buffer.raw_deltas
        try:
            await self.send(shard_id, self.source, seq, entries)
        except Exception as exc:
            self.flush_failures += 1
            for ticket, _emitted_at in buffer.members:
                if not ticket.done():
                    ticket.set_exception(exc)
            return
        finally:
            for member in buffer.members:
                inflight.remove(member)
            acked.set_result(None)
        for ticket, _emitted_at in buffer.members:
            if not ticket.done():
                ticket.set_result(cohort)

    # -- introspection ---------------------------------------------------------

    def oldest_pending(self) -> float | None:
        """Emit time of the oldest unacked delta (None when drained)."""
        oldest: float | None = None
        for buffer in self._open.values():
            for _ticket, emitted_at in buffer.members:
                if oldest is None or emitted_at < oldest:
                    oldest = emitted_at
        for members in self._inflight.values():
            for _ticket, emitted_at in members:
                if oldest is None or emitted_at < oldest:
                    oldest = emitted_at
        return oldest

    def pending_deltas(self) -> int:
        """Unacked deltas (buffered plus in flight)."""
        return sum(len(b.members) for b in self._open.values()) + sum(
            len(m) for m in self._inflight.values()
        )
