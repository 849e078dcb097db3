"""The count/sum/min/max fold: one monoid for every aggregate read path.

Statistical aggregates (§2.1 functional requirement 6) are answered by
several layers — materialized views and their delta streams, sensor
running stats, sealed-block summaries, the warehouse rollup — and a view
fold must equal a fold over the base data (single-writer incremental view
maintenance).  So they all share this one fold, a plain
``[count, total, vmin, vmax]`` list:

- the identity is ``[0, 0.0, inf, -inf]``, so merging never branches on
  emptiness and view state and delta rows carry plain floats;
- NaN readings count and poison ``total`` but never become an extent
  (every comparison with NaN is false);
- extents read ``None`` when no non-NaN value was seen, which is exactly
  when both still hold their identities (one value ``x`` forces
  ``vmin <= x <= vmax``, so ``vmin == inf`` and ``vmax == -inf`` cannot
  both survive it).

The module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = [
    "empty_fold",
    "fold_extents",
    "fold_from_extents",
    "fold_summary",
    "fold_values",
    "merge_fold",
]


def empty_fold() -> list:
    """A fresh identity accumulator."""
    return [0, 0.0, math.inf, -math.inf]


def fold_values(values: Iterable[float]) -> list:
    """Fold a batch of values into a fresh accumulator, in one loop."""
    count = 0
    total = 0.0
    vmin = math.inf
    vmax = -math.inf
    for value in values:
        count += 1
        total += value
        if value < vmin:
            vmin = value
        if value > vmax:
            vmax = value
    return [count, total, vmin, vmax]


def merge_fold(target: list, other: Sequence[float]) -> list:
    """Merge ``other`` into ``target`` in place (commutative, associative)."""
    count, total, vmin, vmax = other
    target[0] += count
    target[1] += total
    if vmin < target[2]:
        target[2] = vmin
    if vmax > target[3]:
        target[3] = vmax
    return target


def fold_extents(fold: Sequence[float]) -> tuple[float | None, float | None]:
    """``(vmin, vmax)``, or ``(None, None)`` when no non-NaN value was seen."""
    vmin, vmax = fold[2], fold[3]
    if vmin == math.inf and vmax == -math.inf:
        return None, None
    return vmin, vmax


def fold_from_extents(
    count: int, total: float, vmin: float | None, vmax: float | None
) -> list:
    """The inverse of :func:`fold_extents`: ``None`` extents become identities."""
    return [
        count,
        total,
        math.inf if vmin is None else vmin,
        -math.inf if vmax is None else vmax,
    ]


def fold_summary(fold: Sequence[float] | None) -> dict:
    """The reader-facing shape: count, total, mean, min and max."""
    if not fold or not fold[0]:
        return {"count": 0, "total": 0.0, "mean": None, "min": None, "max": None}
    count = int(fold[0])
    vmin, vmax = fold_extents(fold)
    return {
        "count": count,
        "total": fold[1],
        "mean": fold[1] / count,
        "min": vmin,
        "max": vmax,
    }
