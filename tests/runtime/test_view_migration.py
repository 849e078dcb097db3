"""View shards are ordinary grains: they migrate and drain losslessly."""

import pytest

from repro.aodb import AodbDatabase, ViewDef
from repro.aodb.views import VIEW_ACTOR_TYPE, shard_id
from repro.fold import empty_fold, fold_values, merge_fold
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, ActorKey, AodbRuntime, RuntimeConfig


class Meter(Actor):
    async def setup(self, org_id):
        self.state["org_id"] = org_id
        self.state["view_stats"] = empty_fold()
        return True

    async def add(self, points):
        batch_fold = fold_values(value for _ts, value in points)
        merge_fold(self.state["view_stats"], batch_fold)
        views = self.context.runtime.database.views
        tickets = views.emit_from(self, {"c0": points}, batch_fold)
        if tickets:
            await self.context.runtime.scheduler.gather(tickets)
        return len(points)


@pytest.fixture
def cluster():
    sched = Scheduler()
    config = RuntimeConfig(default_method_cost=0.0, activation_cost=0.0)
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(sched, config=config, network=network)
    runtime.add_silo("silo-1", cores=2)
    runtime.add_silo("silo-2", cores=2)
    db = AodbDatabase(runtime)
    db.register_actor(Meter)
    db.register_view(ViewDef(name="strain", source="Meter", group_by="org_id"))
    return sched, runtime, db


def test_view_shard_migrates_without_losing_folds(cluster):
    sched, runtime, db = cluster
    shard = ActorKey(VIEW_ACTOR_TYPE, shard_id("strain", "A"))

    async def main():
        await db.ref("Meter", "m1").setup("A")
        await db.ref("Meter", "m1").add([(0.0, 2.0), (0.1, 4.0)])
        source = runtime.directory.lookup(shard)
        target = "silo-2" if source != "silo-2" else "silo-1"
        moved = await runtime.migrate(shard, target)
        assert moved is True
        # Folds continue on the successor; watermarks survived the move,
        # so the post-migration delta is applied exactly once.
        await db.ref("Meter", "m1").add([(0.2, 6.0)])
        summary = await db.view("strain").get("A")
        accounting = await db.view("strain").fold_accounting("A")
        return runtime.directory.lookup(shard), summary, accounting

    located, summary, accounting = sched.run_until_complete(main())
    assert summary["count"] == 3
    assert summary["total"] == 12.0
    assert summary["min"] == 2.0 and summary["max"] == 6.0
    assert accounting["duplicates"] == 0
    # The shard really moved (directory points at the successor's silo).
    assert located in ("silo-1", "silo-2")


def test_extent_holds_migrated_grain_exactly_once(cluster):
    sched, runtime, db = cluster
    shard = ActorKey(VIEW_ACTOR_TYPE, shard_id("strain", "A"))

    async def main():
        await db.ref("Meter", "m1").setup("A")
        await db.ref("Meter", "m1").add([(0.0, 1.0)])
        source = runtime.directory.lookup(shard)
        target = "silo-2" if source != "silo-2" else "silo-1"
        await runtime.migrate(shard, target)
        # Reactivation on the target must not duplicate the extent entry.
        await db.ref("Meter", "m1").add([(0.1, 2.0)])

    sched.run_until_complete(main())
    extent = db.indexes.extent(VIEW_ACTOR_TYPE)
    assert extent.count(shard.actor_id) == 1
    assert db.indexes.extent("Meter") == ["m1"]


def test_extent_survives_silo_drain_exactly_once(cluster):
    sched, runtime, db = cluster
    shard = ActorKey(VIEW_ACTOR_TYPE, shard_id("strain", "A"))

    async def main():
        await db.ref("Meter", "m1").setup("A")
        await db.ref("Meter", "m1").add([(0.0, 5.0)])
        victim = runtime.directory.lookup(shard)
        await runtime.drain_silo(victim)
        return await db.view("strain").get("A")

    summary = sched.run_until_complete(main())
    assert summary["count"] == 1 and summary["total"] == 5.0
    extent = db.indexes.extent(VIEW_ACTOR_TYPE)
    assert extent.count(shard.actor_id) == 1
