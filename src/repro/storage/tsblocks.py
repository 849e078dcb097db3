"""Compressed, tiered time-series blocks (the TritanDB direction).

Per-sensor history in actor state was raw ``DataPoint`` objects — ~300
bytes of Python per 16 bytes of information — so history depth, not CPU,
capped experiment scale.  This module is the storage engine that fixes
that: each stream keeps a small mutable *hot head*, and points evicted
from the head are sealed into immutable compressed blocks.

The codec is the classic time-series pair (pure Python, bit-level):

- **Timestamps** — delta-of-delta.  Floats are first mapped through the
  IEEE-754 total-order bijection to ``uint64`` (sign bit set for
  positives, all bits flipped for negatives), so the integer arithmetic
  is *exact* — any float sequence round-trips bit-identically, and
  monotone sequences (the only kind windows accept) produce small,
  compressible deltas.  A regular-interval stream costs one bit per
  point.
- **Values** — Gorilla-style XOR: each value's bits are XORed with the
  previous value's; a zero XOR costs one bit, otherwise only the
  meaningful (non-zero) window is stored, reusing the previous window
  when it fits.  NaN payloads, infinities and ``-0.0`` all round-trip
  exactly because nothing ever leaves bit space.

The codec works a word at a time: each encoder keeps one bit
accumulator per block in locals and emits a point's control bits and
payload in one shift-or; a block converts between float and uint64 with
one ``struct`` call; each decoder renders the block once as a bit string
and reads fields as slices of it.  The byte format is pinned by golden
digests in ``tests/storage/test_tsblocks.py``.

Every sealed block carries its first & last timestamp next to its
:mod:`repro.fold` accumulator (count / sum / min / max), so range
queries skip non-overlapping blocks without decompression and aggregate
folds over fully-covered blocks are answered from the fold alone.

:class:`TieredSeries` is the engine: a bounded series (append / range /
tail / eviction-on-capacity) whose interior is head + blocks.  Blocks
are plain ``bytes`` + floats, so they ride the ordinary actor-state
path — group-commit flushes, fencing, the redo journal and live
migration all hold with no special cases.
"""

from __future__ import annotations

import bisect
import operator
import struct
import sys
from dataclasses import dataclass
from typing import Sequence

from ..fold import (
    empty_fold,
    fold_extents,
    fold_from_extents,
    fold_summary,
    fold_values,
    merge_fold,
)

__all__ = [
    "BlockStats",
    "SealedBlock",
    "TieredSeries",
    "decode_floats",
    "decode_uints",
    "encode_floats",
    "encode_uints",
]

_MASK64 = (1 << 64) - 1
_SIGN = 1 << 63


def _float_words(values: Sequence[float]) -> tuple:
    """IEEE-754 bit patterns of ``values`` as uint64s (one struct call)."""
    count = len(values)
    return struct.unpack(f"={count}Q", struct.pack(f"={count}d", *values))


def _word_floats(words: Sequence[int]) -> list[float]:
    """Inverse of :func:`_float_words`."""
    count = len(words)
    return list(struct.unpack(f"={count}d", struct.pack(f"={count}Q", *words)))


def _bit_string(data: bytes) -> str:
    """``data`` as one ``'0'``/``'1'`` string, MSB first, built once per block."""
    return f"{int.from_bytes(data, 'big'):0{len(data) * 8}b}"


def _flush(out: bytearray, acc: int, nbits: int) -> tuple[int, int]:
    """Move an accumulator's whole bytes into ``out``; return the rest.

    Encoders flush every ~1,024 bits, so a shift-or never costs O(block).
    """
    keep = nbits & 7
    out += (acc >> keep).to_bytes(nbits >> 3, "big")
    return acc & ((1 << keep) - 1), keep


def _finish(out: bytearray, acc: int, nbits: int) -> bytes:
    """Zero-pad the accumulator to a byte boundary and flush it."""
    pad = -nbits & 7
    _flush(out, acc << pad, nbits + pad)
    return bytes(out)


def encode_uints(values: Sequence[int]) -> bytes:
    """Delta-of-delta encode a sequence of non-negative integers.

    Each dod is zigzagged into a bucketed field — ``'0'``, or ``'10'`` +
    7 bits, ``'110'`` + 12, ``'1110'`` + 20, ``'11110'`` + 32, ``'11111'``
    + 68 — written with its control bits in one shift-or.  The final
    bucket is 68 bits because a dod of two uint64 deltas spans up to
    ±2^65, which zigzags into 67 bits.
    """
    if not values:
        return b""
    out = bytearray()
    prev = values[0]
    acc = prev & _MASK64
    nbits = 64
    prev_delta = 0
    for value in values[1:]:
        delta = value - prev
        dod = delta - prev_delta
        prev = value
        prev_delta = delta
        if not dod:
            acc <<= 1
            nbits += 1
            continue
        n = (dod << 1) if dod > 0 else ((-dod) << 1) - 1
        if n < 0x80:
            acc = (acc << 9) | 0x100 | n
            nbits += 9
        elif n < 0x1000:
            acc = (acc << 15) | 0x6000 | n
            nbits += 15
        elif n < 0x100000:
            acc = (acc << 24) | 0xE00000 | n
            nbits += 24
        elif n < 0x100000000:
            acc = (acc << 37) | 0x1E00000000 | n
            nbits += 37
        else:
            acc = (acc << 73) | (0b11111 << 68) | n
            nbits += 73
        if nbits >= 1024:
            acc, nbits = _flush(out, acc, nbits)
    return _finish(out, acc, nbits)


def decode_uints(data: bytes, count: int) -> list[int]:
    """Inverse of :func:`encode_uints` for ``count`` integers."""
    if count == 0:
        return []
    bits = _bit_string(data)
    value = int(bits[:64], 2)
    out = [value]
    append = out.append
    delta = 0
    pos = 64
    for _ in range(count - 1):
        if bits[pos] == "0":
            pos += 1
        else:
            if bits[pos + 1] == "0":
                n = int(bits[pos + 2:pos + 9], 2)
                pos += 9
            elif bits[pos + 2] == "0":
                n = int(bits[pos + 3:pos + 15], 2)
                pos += 15
            elif bits[pos + 3] == "0":
                n = int(bits[pos + 4:pos + 24], 2)
                pos += 24
            elif bits[pos + 4] == "0":
                n = int(bits[pos + 5:pos + 37], 2)
                pos += 37
            else:
                n = int(bits[pos + 5:pos + 73], 2)
                pos += 73
            delta += (n >> 1) ^ -(n & 1)
        value += delta
        append(value)
    return out


def encode_floats(values: Sequence[float]) -> bytes:
    """Delta-of-delta encode floats via the total-order uint64 mapping.

    Exact for *any* float sequence (the mapping is a bijection and the
    delta arithmetic is integer), but sized for monotone timestamps:
    a fixed-interval stream costs ~1 bit per point after the header.
    """
    return encode_uints(
        [(w ^ _MASK64) if w & _SIGN else (w | _SIGN) for w in _float_words(values)]
    )


def decode_floats(data: bytes, count: int) -> list[float]:
    """Inverse of :func:`encode_floats`."""
    ordered = decode_uints(data, count)
    return _word_floats(
        [(i ^ _SIGN) if i & _SIGN else (i ^ _MASK64) for i in ordered]
    )


def encode_values(values: Sequence[float]) -> bytes:
    """Gorilla XOR-encode a sequence of float values.

    A zero XOR is ``'0'``; an XOR inside the previous meaningful window
    is ``'10'`` + the window bits; otherwise ``'11'`` + 5-bit leading-zero
    count (clamped to 31) + 6-bit width−1 + the meaningful bits.  Each
    case is one shift-or into the accumulator.
    """
    if not values:
        return b""
    words = _float_words(values)
    out = bytearray()
    acc = prev = words[0]
    nbits = 64
    # No window yet: a leading count of 64 can never be reused.
    prev_leading = 64
    prev_meaningful = 0
    prev_trailing = 64
    for bits in words[1:]:
        xor = bits ^ prev
        prev = bits
        if not xor:
            acc <<= 1
            nbits += 1
            continue
        leading = 64 - xor.bit_length()
        if leading > 31:
            leading = 31
        trailing = (xor & -xor).bit_length() - 1
        if leading >= prev_leading and trailing >= prev_trailing:
            width = prev_meaningful + 2
            field = (2 << prev_meaningful) | (xor >> prev_trailing)
        else:
            meaningful = 64 - leading - trailing
            width = meaningful + 13
            header = 0x1800 | (leading << 6) | (meaningful - 1)
            field = (header << meaningful) | (xor >> trailing)
            prev_leading, prev_meaningful, prev_trailing = leading, meaningful, trailing
        acc = (acc << width) | field
        nbits += width
        if nbits >= 1024:
            acc, nbits = _flush(out, acc, nbits)
    return _finish(out, acc, nbits)


def decode_values(data: bytes, count: int) -> list[float]:
    """Inverse of :func:`encode_values` for ``count`` floats."""
    if count == 0:
        return []
    bits = _bit_string(data)
    word = int(bits[:64], 2)
    words = [word]
    append = words.append
    meaningful = 64
    trailing = 0
    pos = 64
    for _ in range(count - 1):
        if bits[pos] == "1":
            if bits[pos + 1] == "1":
                header = int(bits[pos + 2:pos + 13], 2)
                meaningful = (header & 63) + 1
                trailing = 64 - (header >> 6) - meaningful
                pos += 13
            else:
                pos += 2
            end = pos + meaningful
            word ^= int(bits[pos:end], 2) << trailing
            pos = end
        else:
            pos += 1
        append(word)
    return _word_floats(words)


# -- sealed blocks -------------------------------------------------------------


@dataclass(frozen=True)
class SealedBlock:
    """An immutable compressed run of points with its time span and fold.

    ``fold`` is the block's ``(count, sum, vmin, vmax)`` accumulator, so
    aggregates over a fully-covered block need no decode.  Contents are
    plain ``bytes`` + scalars, so a block is serializable as-is into actor
    state documents, the redo journal and the archive.
    """

    ts_bytes: bytes
    val_bytes: bytes
    t_first: float
    t_last: float
    fold: tuple

    @classmethod
    def seal(cls, pairs: Sequence[tuple[float, float]]) -> "SealedBlock":
        """Compress a non-empty, time-ordered run of ``(timestamp, value)``."""
        if not pairs:
            raise ValueError("cannot seal an empty block")
        values = [p[1] for p in pairs]
        return cls(
            ts_bytes=encode_floats([p[0] for p in pairs]),
            val_bytes=encode_values(values),
            t_first=pairs[0][0],
            t_last=pairs[-1][0],
            fold=tuple(fold_values(values)),
        )

    @property
    def count(self) -> int:
        return self.fold[0]

    @property
    def nbytes(self) -> int:
        """Compressed payload size (the memory the block actually holds)."""
        return len(self.ts_bytes) + len(self.val_bytes)

    def decode(self) -> list[tuple[float, float]]:
        """Decompress back to the exact ``(timestamp, value)`` pairs."""
        count = self.count
        timestamps = decode_floats(self.ts_bytes, count)
        values = decode_values(self.val_bytes, count)
        return list(zip(timestamps, values))

    def as_document(self) -> tuple:
        """A flat, picklable representation for state documents:
        ``(ts, vals, count, t_first, t_last, v_min, v_max, v_sum)`` with
        ``None`` extents for an all-NaN block."""
        count, v_sum, _vmin, _vmax = self.fold
        v_min, v_max = fold_extents(self.fold)
        return (
            self.ts_bytes, self.val_bytes,
            count, self.t_first, self.t_last, v_min, v_max, v_sum,
        )

    @classmethod
    def from_document(cls, doc: tuple) -> "SealedBlock":
        ts_bytes, val_bytes, count, t_first, t_last, v_min, v_max, v_sum = doc
        return cls(
            ts_bytes=ts_bytes,
            val_bytes=val_bytes,
            t_first=t_first,
            t_last=t_last,
            fold=tuple(fold_from_extents(count, v_sum, v_min, v_max)),
        )


# -- shared counters -----------------------------------------------------------

#: Nominal live-memory cost of one raw buffered point: the pair tuple, two
#: float objects and the parallel bisect stamp.  Measured once per process
#: so the head-memory probes track real CPython layout.
RAW_POINT_BYTES = (
    sys.getsizeof((0.0, 0.0)) + 2 * sys.getsizeof(0.0) + sys.getsizeof(0.0)
)


class BlockStats:
    """Cluster-wide tsblocks counters, exported as ``storage.*`` probes.

    One instance per runtime (``runtime.tsblock_stats``); every
    :class:`TieredSeries` the runtime's actors create feeds it, so the
    probes aggregate across all sensors like the other storage metrics.
    """

    __slots__ = (
        "blocks_sealed", "blocks_evicted", "blocks_decoded",
        "blocks_skipped", "blocks_considered", "summary_answers",
        "block_bytes", "sealed_points", "head_points",
    )
    METRIC_FIELDS = (
        "block_bytes", "head_bytes", "blocks_sealed", "blocks_evicted",
        "blocks_decoded", "compression_ratio", "block_skip_rate",
        "summary_answers",
    )

    def __init__(self) -> None:
        self.blocks_sealed = 0
        self.blocks_evicted = 0
        self.blocks_decoded = 0
        self.blocks_skipped = 0
        self.blocks_considered = 0
        self.summary_answers = 0
        self.block_bytes = 0
        self.sealed_points = 0
        self.head_points = 0

    @property
    def head_bytes(self) -> int:
        """Estimated live memory of all mutable hot heads."""
        return self.head_points * RAW_POINT_BYTES

    @property
    def compression_ratio(self) -> float:
        """Raw wire bytes (16/point) over compressed bytes, sealed tier."""
        if self.block_bytes == 0:
            return 0.0
        return (16.0 * self.sealed_points) / self.block_bytes

    @property
    def block_skip_rate(self) -> float:
        """Fraction of blocks range queries skipped without decoding."""
        if self.blocks_considered == 0:
            return 0.0
        return self.blocks_skipped / self.blocks_considered


# -- the tiered engine ---------------------------------------------------------


class TieredSeries:
    """A bounded, time-ordered series tiered into hot head + sealed blocks.

    Appends must be non-decreasing in time, ``capacity`` bounds the total
    retained points, and whatever falls off the old end is returned from
    ``append_many`` so callers can archive it — but the interior is
    tiered: the newest ``< block_size`` points stay raw (the mutable hot
    head); each time the head reaches ``block_size`` its points are
    sealed into an immutable compressed block.

    Capacity eviction is *point-exact* (so a capacity-15 series retains
    exactly 15 points, like the raw window): whole blocks are evicted
    as :class:`SealedBlock` objects — callers archive them without a
    decode — and when the boundary falls inside a block, that block is
    decoded once into a small "old side" buffer that serves subsequent
    evictions and reads until drained.

    ``block_size=0`` disables sealing entirely, degenerating to a raw
    pair window (the A-side of the tsbench A/B).
    """

    #: Shared empty-eviction result; treat as read-only.
    _NO_EVICTIONS: list = []

    def __init__(
        self,
        capacity: int = 4096,
        block_size: int = 256,
        stats: BlockStats | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        if block_size < 0:
            raise ValueError("block_size must be >= 0")
        self.capacity = capacity
        self.block_size = block_size
        self.stats = stats
        # Oldest → newest: _old (decoded remainder of a part-evicted
        # block) → _blocks → head.
        self._old: list[tuple[float, float]] = []
        self._blocks: list[SealedBlock] = []
        self._block_last: list[float] = []  # parallel t_last, for bisect
        self._head: list[tuple[float, float]] = []
        self._head_stamps: list[float] = []
        self.total_appended = 0
        # Single-slot decode cache: recent-range queries that cross into
        # the newest sealed block decode it once, not per query.
        self._cache_block: SealedBlock | None = None
        self._cache_pairs: list[tuple[float, float]] | None = None

    def __len__(self) -> int:
        return (
            len(self._old)
            + sum(block.count for block in self._blocks)
            + len(self._head)
        )

    @property
    def sealed_blocks(self) -> int:
        return len(self._blocks)

    @property
    def last_timestamp(self) -> float | None:
        if self._head:
            return self._head_stamps[-1]
        if self._blocks:
            return self._blocks[-1].t_last
        if self._old:
            return self._old[-1][0]
        return None

    # -- writes ----------------------------------------------------------------

    def append(self, timestamp: float, value: float) -> list:
        """Add one point; returns evicted items (pairs and/or blocks)."""
        return self.append_many([(timestamp, value)])

    def append_many(self, pairs: Sequence[tuple[float, float]]) -> list:
        """Append a time-ordered batch; returns everything evicted.

        The result interleaves raw ``(timestamp, value)`` pairs and whole
        :class:`SealedBlock` objects, oldest first — a block appears
        whenever the eviction boundary swallowed it entirely, so archival
        never decodes what it is about to recompress.
        """
        if not pairs:
            return self._NO_EVICTIONS
        last = self.last_timestamp
        stamps = [pair[0] for pair in pairs]
        if (last is not None and stamps[0] < last) or not all(
            map(operator.le, stamps, stamps[1:])
        ):
            # Slow path, only to name the offending point.  A NaN stamp
            # fails ``le`` but is never ``<`` its neighbour, so it passes.
            for timestamp in stamps:
                if last is not None and timestamp < last:
                    raise ValueError(
                        f"out-of-order point: {timestamp} after {last}"
                    )
                last = timestamp
        self._head.extend(pairs)
        self._head_stamps.extend(stamps)
        self.total_appended += len(pairs)
        stats = self.stats
        if stats is not None:
            stats.head_points += len(pairs)
        if self.block_size:
            while len(self._head) >= self.block_size:
                self._seal_head_prefix(self.block_size)
        if len(self) <= self.capacity:
            return self._NO_EVICTIONS
        return self._evict(len(self) - self.capacity)

    def _seal_head_prefix(self, count: int) -> None:
        run = self._head[:count]
        del self._head[:count]
        del self._head_stamps[:count]
        block = SealedBlock.seal(run)
        self._blocks.append(block)
        self._block_last.append(block.t_last)
        stats = self.stats
        if stats is not None:
            stats.blocks_sealed += 1
            stats.block_bytes += block.nbytes
            stats.sealed_points += block.count
            stats.head_points -= block.count

    def _evict(self, need: int) -> list:
        evicted: list = []
        stats = self.stats
        while need > 0:
            if self._old:
                take = min(need, len(self._old))
                evicted.extend(self._old[:take])
                del self._old[:take]
                need -= take
                if stats is not None:
                    stats.head_points -= take
            elif self._blocks:
                block = self._blocks.pop(0)
                del self._block_last[0]
                if stats is not None:
                    stats.blocks_evicted += 1
                    stats.block_bytes -= block.nbytes
                    stats.sealed_points -= block.count
                if block.count <= need:
                    evicted.append(block)
                    need -= block.count
                else:
                    # Boundary falls inside the oldest block: decode it
                    # once; its remainder becomes the old-side buffer.
                    self._old = self._decode(block)
                    if stats is not None:
                        stats.head_points += block.count
            else:
                take = min(need, len(self._head))
                evicted.extend(self._head[:take])
                del self._head[:take]
                del self._head_stamps[:take]
                need -= take
                if stats is not None:
                    stats.head_points -= take
        return evicted

    def _overlapping(self, start: float, end: float) -> list[SealedBlock]:
        """Blocks whose span can meet ``[start, end)``; counts the skipped."""
        blocks = self._blocks
        # First block that can overlap: t_last >= start.
        lo = hi = bisect.bisect_left(self._block_last, start)
        while hi < len(blocks) and blocks[hi].t_first < end:
            hi += 1
        stats = self.stats
        if stats is not None:
            stats.blocks_considered += len(blocks)
            stats.blocks_skipped += len(blocks) - (hi - lo)
        return blocks[lo:hi]

    def _decode(self, block: SealedBlock) -> list[tuple[float, float]]:
        if block is self._cache_block:
            return list(self._cache_pairs)
        pairs = block.decode()
        if self.stats is not None:
            self.stats.blocks_decoded += 1
        self._cache_block = block
        self._cache_pairs = pairs
        return list(pairs)

    # -- reads -----------------------------------------------------------------

    def latest(self) -> tuple[float, float] | None:
        """The most recent ``(timestamp, value)``, or None when empty."""
        if self._head:
            return self._head[-1]
        if self._blocks:
            return self._decode(self._blocks[-1])[-1]
        if self._old:
            return self._old[-1]
        return None

    def range(self, start: float, end: float) -> list[tuple[float, float]]:
        """Pairs with start <= timestamp < end, stitched across tiers.

        Blocks whose time span misses ``[start, end)`` are skipped
        without decoding (counted in the block-skip-rate probe).
        """
        if end <= start:
            return []
        out: list[tuple[float, float]] = []
        if self._old and self._old[-1][0] >= start and self._old[0][0] < end:
            out.extend(p for p in self._old if start <= p[0] < end)
        for block in self._overlapping(start, end):
            if start <= block.t_first and block.t_last < end:
                out.extend(self._decode(block))
            else:
                out.extend(p for p in self._decode(block) if start <= p[0] < end)
        stamps = self._head_stamps
        lo = bisect.bisect_left(stamps, start)
        hi = bisect.bisect_left(stamps, end, lo)
        out.extend(self._head[lo:hi])
        return out

    def tail(self, count: int) -> list[tuple[float, float]]:
        """The most recent ``count`` pairs (head-resident when possible)."""
        if count <= 0:
            return []
        if count <= len(self._head):
            return self._head[len(self._head) - count:]
        out = list(self._head)
        need = count - len(out)
        for block in reversed(self._blocks):
            if need <= 0:
                break
            pairs = self._decode(block)
            take = pairs[-need:] if need < len(pairs) else pairs
            out = take + out
            need -= len(take)
        if need > 0 and self._old:
            out = self._old[-need:] + out
        return out

    def all_pairs(self) -> list[tuple[float, float]]:
        """Every retained pair, oldest first (decodes every block)."""
        out = list(self._old)
        for block in self._blocks:
            out.extend(self._decode(block))
        out.extend(self._head)
        return out

    def aggregate(self, start: float, end: float) -> dict:
        """Fold count/min/max/sum/mean over [start, end).

        Blocks fully inside the range contribute their fold without
        decompression (counted in ``storage.summary_answers``); partially
        overlapping blocks decode and fold only the matching points with
        the same :mod:`repro.fold` algebra — so the answer equals folding
        the decoded range (the sum up to float association).
        """
        acc = empty_fold()
        edges: list[float] = []
        if end > start:
            if self._old and self._old[-1][0] >= start and self._old[0][0] < end:
                edges.extend(v for t, v in self._old if start <= t < end)
            stats = self.stats
            for block in self._overlapping(start, end):
                if start <= block.t_first and block.t_last < end:
                    merge_fold(acc, block.fold)
                    if stats is not None:
                        stats.summary_answers += 1
                else:
                    edges.extend(
                        v for t, v in self._decode(block) if start <= t < end
                    )
            stamps = self._head_stamps
            lo = bisect.bisect_left(stamps, start)
            hi = bisect.bisect_left(stamps, end, lo)
            edges.extend(v for _t, v in self._head[lo:hi])
        if edges:
            merge_fold(acc, fold_values(edges))
        summary = fold_summary(acc)
        summary["sum"] = summary.pop("total")
        return summary

    # -- accounting & persistence ----------------------------------------------

    def memory_stats(self) -> dict:
        """Live-memory accounting of this series (estimated bytes)."""
        head_points = len(self._head) + len(self._old)
        block_bytes = sum(block.nbytes for block in self._blocks)
        sealed_points = sum(block.count for block in self._blocks)
        raw_equivalent = RAW_POINT_BYTES * (head_points + sealed_points)
        live = head_points * RAW_POINT_BYTES + block_bytes
        return {
            "points": head_points + sealed_points,
            "head_points": head_points,
            "sealed_points": sealed_points,
            "blocks": len(self._blocks),
            "block_bytes": block_bytes,
            "live_bytes": live,
            "raw_equivalent_bytes": raw_equivalent,
            "compression_ratio": (
                (16.0 * sealed_points) / block_bytes if block_bytes else 0.0
            ),
        }

    def detach_stats(self) -> None:
        """Unregister this series from the shared :class:`BlockStats`.

        Called when the owning actor deactivates (or migrates away): the
        cluster-wide probes must stop counting a series whose points are
        about to be re-counted by the re-opened copy on another silo.
        """
        stats = self.stats
        if stats is None:
            return
        stats.head_points -= len(self._head) + len(self._old)
        for block in self._blocks:
            stats.block_bytes -= block.nbytes
            stats.sealed_points -= block.count
        self.stats = None

    def to_document(self) -> dict:
        """Serialize for an actor-state document.

        A partially-evicted old side is re-sealed into a (smaller) head
        block so the document is always ``blocks + head`` — immutable
        compressed runs plus the raw hot head.
        """
        blocks = [block.as_document() for block in self._blocks]
        if self._old:
            blocks.insert(0, SealedBlock.seal(self._old).as_document())
        return {
            "capacity": self.capacity,
            "block_size": self.block_size,
            "blocks": blocks,
            "head": list(self._head),
        }

    @classmethod
    def from_document(
        cls, doc: dict, stats: BlockStats | None = None
    ) -> "TieredSeries":
        """Re-open a series from its document (e.g. after migration)."""
        series = cls(
            capacity=doc.get("capacity", 4096),
            block_size=doc.get("block_size", 256),
            stats=stats,
        )
        for block_doc in doc.get("blocks", ()):
            block = SealedBlock.from_document(tuple(block_doc))
            series._blocks.append(block)
            series._block_last.append(block.t_last)
            if stats is not None:
                stats.block_bytes += block.nbytes
                stats.sealed_points += block.count
        head = [tuple(pair) for pair in doc.get("head", ())]
        series._head.extend(head)
        series._head_stamps.extend(pair[0] for pair in head)
        if stats is not None:
            stats.head_points += len(head)
        return series
