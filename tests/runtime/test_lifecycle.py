"""Activation lifecycle: hooks, idle collection, timers, reminders, failures."""

import gc
import warnings
from types import SimpleNamespace

import pytest

from repro.elastic import Autoscaler, Rebalancer, SiloSpec
from repro.ingest import IngestGateway, default_registry
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.obs import HealthMonitor, default_slo_rules
from repro.obs.telemetry import TelemetryPump
from repro.runtime import Actor, AodbRuntime, RuntimeConfig


def build_runtime(sched, **config_kwargs):
    config_kwargs.setdefault("default_method_cost", 0.0)
    config_kwargs.setdefault("activation_cost", 0.0)
    config = RuntimeConfig(**config_kwargs)
    network = Network(sched, lan=ConstantLatency(0.0))
    runtime = AodbRuntime(sched, config=config, network=network)
    runtime.add_silo("s1", cores=2)
    return runtime


class Lifecycled(Actor):
    activations = []
    deactivations = []

    async def on_activate(self):
        Lifecycled.activations.append(self.actor_id)

    async def on_deactivate(self):
        Lifecycled.deactivations.append(self.actor_id)

    async def ping(self):
        return "pong"


@pytest.fixture(autouse=True)
def reset_lifecycle_log():
    Lifecycled.activations = []
    Lifecycled.deactivations = []


def test_lifecycle_hooks_run(sched):
    runtime = build_runtime(sched)
    runtime.register_actor(Lifecycled)

    async def main():
        await runtime.ref("Lifecycled", "x").ping()
        await runtime.deactivate("Lifecycled", "x")

    sched.run_until_complete(main())
    assert Lifecycled.activations == ["x"]
    assert Lifecycled.deactivations == ["x"]


def test_idle_collection_deactivates_unused_actors(sched):
    runtime = build_runtime(sched, idle_timeout=50.0, collection_interval=10.0)
    runtime.register_actor(Lifecycled)
    runtime.start()

    async def main():
        hot = runtime.ref("Lifecycled", "hot")
        cold = runtime.ref("Lifecycled", "cold")
        await hot.ping()
        await cold.ping()
        # Keep `hot` warm; let `cold` idle out.
        for _ in range(8):
            await sched.sleep(15)
            await hot.ping()
        return runtime.total_activations()

    assert sched.run_until_complete(main()) == 1
    assert "cold" in Lifecycled.deactivations
    assert "hot" not in Lifecycled.deactivations
    assert runtime.stats.activations_collected == 1


def test_collected_actor_reactivates_on_next_call(sched):
    runtime = build_runtime(sched, idle_timeout=10.0, collection_interval=5.0)
    runtime.register_actor(Lifecycled)
    runtime.start()

    async def main():
        ref = runtime.ref("Lifecycled", "x")
        await ref.ping()
        await sched.sleep(30)
        assert runtime.total_activations() == 0
        return await ref.ping()

    assert sched.run_until_complete(main()) == "pong"
    assert Lifecycled.activations == ["x", "x"]


def test_busy_actor_not_collected(sched):
    runtime = build_runtime(sched, idle_timeout=5.0, collection_interval=2.0)

    class Slow(Actor):
        async def long_job(self):
            await self.context.runtime.scheduler.sleep(30)
            return "done"

    runtime.register_actor(Slow)
    runtime.start()

    async def main():
        result = await runtime.ref("Slow", "s").long_job()
        return result

    assert sched.run_until_complete(main()) == "done"
    assert runtime.stats.activations_collected == 0


def test_on_activate_failure_rejects_callers_and_recovers(sched):
    runtime = build_runtime(sched)

    class Flaky(Actor):
        attempts = 0

        async def on_activate(self):
            Flaky.attempts += 1
            if Flaky.attempts == 1:
                raise RuntimeError("transient init failure")

        async def ping(self):
            return "pong"

    runtime.register_actor(Flaky)

    async def main():
        ref = runtime.ref("Flaky", "f")
        with pytest.raises(RuntimeError, match="transient init failure"):
            await ref.ping()
        # Next call gets a fresh activation that succeeds.
        return await ref.ping()

    assert sched.run_until_complete(main()) == "pong"
    assert runtime.stats.activation_failures == 1
    assert Flaky.attempts == 2


def test_actor_timer_fires_through_mailbox(sched):
    runtime = build_runtime(sched)

    class Ticker(Actor):
        def __init__(self, context):
            super().__init__(context)
            self.ticks = 0

        async def begin(self):
            self.context.register_timer("t", 5.0, "tick")
            return True

        async def tick(self):
            self.ticks += 1

        async def count(self):
            return self.ticks

    runtime.register_actor(Ticker)

    async def main():
        ref = runtime.ref("Ticker", "t")
        await ref.begin()
        await sched.sleep(26)
        return await ref.count()

    assert sched.run_until_complete(main()) == 5


def test_timer_cancel(sched):
    runtime = build_runtime(sched)

    class Ticker(Actor):
        def __init__(self, context):
            super().__init__(context)
            self.ticks = 0

        async def begin(self):
            self.context.register_timer("t", 5.0, "tick")

        async def stop(self):
            return self.context.cancel_timer("t")

        async def tick(self):
            self.ticks += 1

        async def count(self):
            return self.ticks

    runtime.register_actor(Ticker)

    async def main():
        ref = runtime.ref("Ticker", "t")
        await ref.begin()
        await sched.sleep(11)
        cancelled = await ref.stop()
        await sched.sleep(20)
        return cancelled, await ref.count()

    cancelled, ticks = sched.run_until_complete(main())
    assert cancelled is True
    assert ticks == 2


def test_timers_die_with_activation(sched):
    runtime = build_runtime(sched, idle_timeout=10.0, collection_interval=5.0)

    class Ticker(Actor):
        total_ticks = 0

        async def begin(self):
            self.context.register_timer("t", 3.0, "tick")

        async def tick(self):
            # Ticks keep last_used fresh, so idle collection would never
            # fire; cancel after the first tick to let the actor idle out.
            Ticker.total_ticks += 1
            self.context.cancel_timer("t")

    runtime.register_actor(Ticker)
    runtime.start()

    async def main():
        await runtime.ref("Ticker", "t").begin()
        await sched.sleep(60)
        return Ticker.total_ticks

    assert sched.run_until_complete(main()) == 1
    assert runtime.stats.activations_collected == 1


def test_reminder_delivered_and_survives_deactivation(sched):
    runtime = build_runtime(
        sched, idle_timeout=15.0, collection_interval=5.0, reminder_tick=10.0
    )

    class Reminded(Actor):
        reminders_seen = []

        async def begin(self):
            self.context.register_reminder("report", period=30.0)

        async def receive_reminder(self, name):
            Reminded.reminders_seen.append((name, self.context.now))

    runtime.register_actor(Reminded)
    runtime.start()

    async def main():
        await runtime.ref("Reminded", "r").begin()
        await sched.sleep(100)
        return list(Reminded.reminders_seen)

    seen = sched.run_until_complete(main())
    assert len(seen) >= 3
    assert all(name == "report" for name, _ in seen)
    # The actor idled out between reminders, so it was re-activated:
    assert runtime.stats.activations_created >= 2


def test_unregister_reminder_stops_delivery(sched):
    runtime = build_runtime(sched, reminder_tick=5.0)

    class Reminded(Actor):
        count = 0

        async def begin(self):
            self.context.register_reminder("r", period=10.0)

        async def halt(self):
            return self.context.unregister_reminder("r")

        async def receive_reminder(self, name):
            Reminded.count += 1

    runtime.register_actor(Reminded)
    runtime.start()

    async def main():
        ref = runtime.ref("Reminded", "x")
        await ref.begin()
        await sched.sleep(21)
        removed = await ref.halt()
        baseline = Reminded.count
        await sched.sleep(40)
        return removed, baseline, Reminded.count

    removed, baseline, final = sched.run_until_complete(main())
    assert removed is True
    assert baseline >= 1
    assert final == baseline


def test_runtime_stop_shuts_everything_down(sched):
    runtime = build_runtime(sched)
    runtime.register_actor(Lifecycled)
    runtime.start()

    async def main():
        for i in range(3):
            await runtime.ref("Lifecycled", f"a{i}").ping()
        await runtime.stop()
        return runtime.total_activations(), len(runtime.silos())

    activations, silos = sched.run_until_complete(main())
    assert activations == 0
    assert silos == 0
    assert sorted(Lifecycled.deactivations) == ["a0", "a1", "a2"]


def test_runtime_stop_finishes_every_service_task(sched):
    runtime = build_runtime(sched, redo_lag=1.0)
    runtime.add_silo("s2", cores=2)
    runtime.start()
    services = [
        runtime._collector_task,
        runtime._reminder_task,
        runtime._failure_detector_task,
        *runtime._heartbeats.values(),
        *runtime._redo_pumps.values(),
    ]
    assert len(services) == 7

    async def main():
        await sched.sleep(2.0)
        await runtime.stop()

    sched.run_until_complete(main())
    assert not runtime._heartbeats and not runtime._redo_pumps
    # A running loop takes its cancellation at its next step.
    sched.drain()
    assert all(task.future.cancelled() for task in services)


def test_abandoned_runtime_leaves_no_unawaited_coroutine():
    """Service loops of a runtime dropped before it ever ran close quietly.

    Garbage collection finalizes the runtime's reference cycle in no fixed
    order, so an un-started coroutine could be finalized before its task and
    warn "never awaited"; deferred service tasks hold no coroutine until
    their first step.
    """

    def abandon():
        sched = Scheduler()
        runtime = build_runtime(sched, redo_lag=1.0)
        runtime.add_silo("s2", cores=2)
        runtime.start()
        monitor = HealthMonitor(runtime.metrics, default_slo_rules())
        monitor.attach(sched)
        TelemetryPump(runtime, monitor=monitor).start()
        Autoscaler(runtime, monitor, [SiloSpec("s3")]).attach(sched)
        Rebalancer(runtime).attach(sched)
        IngestGateway(SimpleNamespace(runtime=runtime), default_registry()).start()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        abandon()
        gc.collect()
    assert [str(w.message) for w in caught] == []


def test_describe_cluster_snapshot(sched):
    runtime = build_runtime(sched)
    runtime.register_actor(Lifecycled)

    async def main():
        await runtime.ref("Lifecycled", "x").ping()
        return runtime.describe_cluster()

    snapshot = sched.run_until_complete(main())
    assert snapshot["silos"]["s1"]["activations"] == 1
    assert snapshot["directory_entries"] == 1
    assert "Lifecycled" in snapshot["actor_types"]
