"""Unit tests for the view-delta coalescer: windows, chains, failures."""

import pytest

from repro.kernel import Scheduler
from repro.net.deltas import DeltaCoalescer


class RecordingSend:
    """Captures flushes; optionally delays or fails per call."""

    def __init__(self, scheduler, delay=0.0):
        self.scheduler = scheduler
        self.delay = delay
        self.calls = []
        self.fail_next = False

    async def __call__(self, shard_id, stream_id, seq, entries):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected flush failure")
        if self.delay:
            await self.scheduler.sleep(self.delay)
        self.calls.append((shard_id, stream_id, seq, list(entries)))
        return {"applied": sum(e[3] for e in entries), "duplicate": False}


def test_constructor_validates_parameters():
    scheduler = Scheduler()
    send = RecordingSend(scheduler)
    with pytest.raises(ValueError, match="max_delay"):
        DeltaCoalescer(scheduler, send, "s1", max_delay=-1.0)
    with pytest.raises(ValueError, match="max_keys"):
        DeltaCoalescer(scheduler, send, "s1", max_keys=0)


def test_same_window_deltas_coalesce_into_one_flush():
    scheduler = Scheduler()
    send = RecordingSend(scheduler)
    coalescer = DeltaCoalescer(scheduler, send, "s1", max_delay=0.001)

    async def main():
        t1 = coalescer.emit("shard", "g", "e1", 0.0, [1, 2.0, 2.0, 2.0])
        t2 = coalescer.emit("shard", "g", "e1", 0.0, [1, 4.0, 4.0, 4.0])
        t3 = coalescer.emit("shard", "g", "e2", 0.0, [1, 9.0, 9.0, 9.0])
        return await scheduler.gather([t1, t2, t3])

    cohorts = scheduler.run_until_complete(main())
    # One flush; every ticket reports the shared cohort size.
    assert cohorts == [3, 3, 3]
    assert len(send.calls) == 1
    shard_id, stream_id, seq, entries = send.calls[0]
    assert (shard_id, stream_id, seq) == ("shard", "s1", 1)
    # Same (group, entity, bucket) merged: counts sum, extrema fold.
    assert entries == [("g", "e1", 0.0, 2, 6.0, 2.0, 4.0), ("g", "e2", 0.0, 1, 9.0, 9.0, 9.0)]
    assert coalescer.deltas_emitted == 3
    assert coalescer.flushes == 1
    assert coalescer.pending_deltas() == 0
    assert coalescer.oldest_pending() is None


def test_max_keys_overflow_seals_immediately():
    scheduler = Scheduler()
    send = RecordingSend(scheduler)
    coalescer = DeltaCoalescer(scheduler, send, "s1", max_delay=5.0, max_keys=2)

    async def main():
        t1 = coalescer.emit("shard", "g", "e1", 0.0, [1, 1.0, 1.0, 1.0])
        t2 = coalescer.emit("shard", "g", "e2", 0.0, [1, 1.0, 1.0, 1.0])
        await scheduler.gather([t1, t2])
        return scheduler.now

    acked_at = scheduler.run_until_complete(main())
    # Sealed on the second distinct key, not after the 5s window.
    assert acked_at < 1.0
    assert len(send.calls) == 1


def test_flushes_are_sequenced_and_fifo_chained():
    scheduler = Scheduler()
    send = RecordingSend(scheduler, delay=0.5)
    coalescer = DeltaCoalescer(scheduler, send, "s1", max_delay=0.0)

    async def main():
        first = coalescer.emit("shard", "g", "e1", 0.0, [1, 1.0, 1.0, 1.0])
        # Let the first buffer seal and its (slow) flush depart...
        await scheduler.sleep(0.1)
        second = coalescer.emit("shard", "g", "e1", 0.0, [1, 2.0, 2.0, 2.0])
        await scheduler.gather([first, second])

    scheduler.run_until_complete(main())
    # The second flush waited for the first's ack: seqs arrive in order.
    assert [call[2] for call in send.calls] == [1, 2]


def test_failed_flush_raises_on_tickets_and_chain_continues():
    scheduler = Scheduler()
    send = RecordingSend(scheduler)
    coalescer = DeltaCoalescer(scheduler, send, "s1", max_delay=0.0)
    send.fail_next = True

    async def main():
        doomed = coalescer.emit("shard", "g", "e1", 0.0, [1, 1.0, 1.0, 1.0])
        with pytest.raises(RuntimeError, match="injected"):
            await doomed
        # The chain is not wedged by the failure: the next flush departs.
        ok = coalescer.emit("shard", "g", "e1", 0.0, [1, 2.0, 2.0, 2.0])
        return await ok

    cohort = scheduler.run_until_complete(main())
    assert cohort == 1
    assert coalescer.flush_failures == 1
    assert [call[2] for call in send.calls] == [2]
    assert coalescer.pending_deltas() == 0


def test_oldest_pending_tracks_buffered_and_inflight_deltas():
    scheduler = Scheduler()
    send = RecordingSend(scheduler, delay=1.0)
    coalescer = DeltaCoalescer(scheduler, send, "s1", max_delay=0.2)

    async def main():
        ticket = coalescer.emit("shard", "g", "e1", 0.0, [1, 1.0, 1.0, 1.0])
        emitted_at = scheduler.now
        assert coalescer.oldest_pending() == emitted_at
        assert coalescer.pending_deltas() == 1
        # Past the window the delta is in flight, still pending.
        await scheduler.sleep(0.5)
        assert coalescer.oldest_pending() == emitted_at
        await ticket
        assert coalescer.oldest_pending() is None
        assert coalescer.pending_deltas() == 0

    scheduler.run_until_complete(main())


def test_independent_shards_flush_independently():
    scheduler = Scheduler()
    send = RecordingSend(scheduler)
    coalescer = DeltaCoalescer(scheduler, send, "s1", max_delay=0.0)

    async def main():
        tickets = [
            coalescer.emit("shard-a", "g", "e1", 0.0, [1, 1.0, 1.0, 1.0]),
            coalescer.emit("shard-b", "g", "e1", 0.0, [1, 1.0, 1.0, 1.0]),
        ]
        await scheduler.gather(tickets)

    scheduler.run_until_complete(main())
    assert sorted(call[0] for call in send.calls) == ["shard-a", "shard-b"]
    # Each shard numbers its own stream from 1.
    assert [call[2] for call in send.calls] == [1, 1]
