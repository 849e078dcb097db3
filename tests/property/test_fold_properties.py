"""Property test: every read path folds the same points to the same answer.

The count/sum/min/max fold (:mod:`repro.fold`) is shared by the raw fold,
sealed-block summaries stitched with decoded edges
(:meth:`TieredSeries.aggregate`), coalesced view deltas folded by a
:class:`MaterializedView`, and the warehouse rollup.  On the same points
— NaN, ±inf, −0.0 and empty input included — count, min and max must
match exactly (``==``, so −0.0 equals 0.0) and sums must agree to 1e-9
of the summed magnitudes, or all be NaN.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aodb import AodbDatabase, ViewDef
from repro.aodb.views import VIEW_ACTOR_TYPE, shard_id
from repro.fold import fold_summary, fold_values
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.net.deltas import DeltaCoalescer
from repro.runtime import Actor, AodbRuntime, RuntimeConfig
from repro.storage import TieredSeries
from repro.warehouse import StarSchema

values_strategy = st.lists(
    st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    ),
    max_size=40,
)


class Probe(Actor):
    """A view source type; the test drives the coalescer directly."""


def series_path(values, block_size, skip):
    """Fold via block summaries plus decoded edges; returns the folded
    values too (those at or after the ``skip``-th timestamp)."""
    series = TieredSeries(capacity=len(values) + 1, block_size=block_size)
    series.append_many([(float(i), v) for i, v in enumerate(values)])
    got = series.aggregate(float(skip), float(len(values) + 1))
    got["total"] = got.pop("sum")
    return got, values[skip:]


def view_path(values, chunk):
    """Fold chunk deltas merged by a DeltaCoalescer into a view shard."""
    sched = Scheduler()
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    runtime = AodbRuntime(
        sched, config=config, network=Network(sched, lan=ConstantLatency(0.0))
    )
    runtime.add_silo("silo-1", cores=2)
    db = AodbDatabase(runtime)
    db.register_actor(Probe)
    db.register_view(ViewDef(name="v", source="Probe"))
    shard = shard_id("v", "all")

    async def send(shard_id_, stream, seq, entries):
        return await runtime.ref(VIEW_ACTOR_TYPE, shard_id_).ask(
            "apply_deltas", stream, seq, entries
        )

    coalescer = DeltaCoalescer(sched, send, source="silo-1")

    async def main():
        tickets = [
            # Two entities: merges happen both in the coalescer's buffer
            # (same key) and in the shard (different entries).
            coalescer.emit(
                shard, "all", f"e{n % 2}", 0.0,
                fold_values(values[start:start + chunk]),
            )
            for n, start in enumerate(range(0, len(values), chunk))
        ]
        await sched.gather(tickets)
        return await db.view("v").get()

    got = sched.run_until_complete(main())
    del got["group"]
    return got


def warehouse_path(values):
    schema = StarSchema()
    for i, value in enumerate(values):
        schema.load_fact("org-0/s-0/c-0", float(i), value)
    rows = schema.aggregate(group_by=("org_id",))
    if not rows:
        return fold_summary(None)
    (row,) = rows
    return {
        "count": row.count, "total": row.total,
        "min": row.minimum, "max": row.maximum,
    }


def assert_same_fold(results, values):
    scale = sum(abs(v) for v in values if math.isfinite(v))
    first = results[0]
    for got in results:
        assert got["count"] == first["count"] == len(values)
        assert got["min"] == first["min"]
        assert got["max"] == first["max"]
        if math.isnan(first["total"]):
            assert math.isnan(got["total"])
        else:
            assert math.isclose(
                got["total"], first["total"], rel_tol=1e-9, abs_tol=1e-9 * scale
            )


@given(
    values=values_strategy,
    block_size=st.integers(min_value=1, max_value=8),
    skip=st.integers(min_value=0, max_value=40),
    chunk=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_every_read_path_folds_alike(values, block_size, skip, chunk):
    skip = min(skip, len(values))
    tiered, folded = series_path(values, block_size, skip)
    raw = fold_summary(fold_values(folded))
    assert_same_fold(
        [raw, tiered, view_path(folded, chunk), warehouse_path(folded)], folded
    )
    finite = [v for v in folded if not math.isnan(v)]
    if finite:
        assert raw["min"] == min(finite) and raw["max"] == max(finite)
    else:
        assert raw["min"] is None and raw["max"] is None


def test_empty_input_folds_to_the_identity_on_every_path():
    tiered, folded = series_path([], 4, 0)
    assert folded == []
    results = [fold_summary(fold_values([])), tiered, view_path([], 3),
               warehouse_path([])]
    for got in results:
        assert got["count"] == 0 and got["total"] == 0.0
        assert got["min"] is None and got["max"] is None and got["mean"] is None
