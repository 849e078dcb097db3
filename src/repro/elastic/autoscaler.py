"""SLO-driven autoscaling: grow on firing alerts, shrink on sustained idle.

The paper provisions a *fixed* cluster per experiment; real SHM deployments
see diurnal load, so a fixed cluster is either over-provisioned at night or
under-provisioned at the commute peak.  The :class:`Autoscaler` closes that
loop using pieces that already exist:

- **scale up** keys off the :class:`~repro.obs.health.HealthMonitor` — when
  any of the configured :class:`~repro.obs.health.SloRule` names is firing
  (its own for/clear hysteresis already debounced it), a silo is taken from
  the configured :class:`SiloSpec` pool and added to the cluster;
- **scale down** keys off sustained idleness — when every silo's *windowed*
  CPU utilization stays under ``scale_down_utilization`` for
  ``scale_down_cycles`` consecutive observations, the least-loaded silo is
  gracefully drained (:meth:`~repro.runtime.runtime.AodbRuntime.drain_silo`:
  excluded from placement, live activations migrated out, then shut down)
  and its spec returns to the pool.

A shared ``cooldown_seconds`` lockout after *either* action gives the
cluster time to re-equilibrate before the next decision — without it, the
alert that triggered a scale-up is often still firing one interval later
(histograms remember the bad minute) and the pool would empty in one burst.

The loop also integrates ``silo_seconds`` — live silos x wall time, the
simulation's proxy for the EC2 bill — so experiments can report elasticity
savings against a statically provisioned control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .load import WindowedCpuLoad

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.scheduler import Scheduler, Task
    from ..obs.health import HealthMonitor
    from ..runtime.runtime import AodbRuntime


@dataclass(frozen=True)
class SiloSpec:
    """One launchable server: what ``add_silo`` needs to bring it up."""

    silo_id: str
    cores: int = 2
    speed: float = 1.0
    instance_type: str = "generic"


@dataclass(frozen=True)
class AutoscalerConfig:
    """Policy knobs for the autoscaling loop."""

    #: Virtual seconds between decisions (and the idle-detection window).
    interval: float = 1.0
    #: Never drain below this many live silos.
    min_silos: int = 1
    #: Never add beyond this many live silos (pool may be smaller anyway).
    max_silos: int = 8
    #: SLO rule names whose firing triggers a scale-up.
    scale_up_rules: tuple[str, ...] = (
        "ask-p99-latency",
        "mailbox-backlog",
        "cluster-imbalance",
    )
    #: Mean windowed cluster utilization above which to scale up
    #: preemptively (None disables).  The SLO rules are the reactive
    #: backstop — they fire once users already feel queueing; the CPU
    #: trigger adds capacity *before* saturation, while latency is still
    #: flat.  The mean (not the max) is deliberate: right after a scale-up
    #: the new silo is empty and the max stays high until the rebalancer
    #: spreads load, which would double-fire a max-based trigger.
    scale_up_utilization: float | None = None
    #: Consecutive hot cycles required before the CPU trigger acts.
    scale_up_cycles: int = 2
    #: Windowed utilization below which a silo counts as idle.
    scale_down_utilization: float = 0.25
    #: Consecutive all-idle cycles required before draining a silo.
    scale_down_cycles: int = 3
    #: Lockout after any scaling action before the next one.
    cooldown_seconds: float = 5.0

    def validate(self) -> None:
        if self.interval <= 0:
            raise ValueError("autoscaler interval must be positive")
        if self.min_silos < 1:
            raise ValueError("min_silos must be >= 1")
        if self.max_silos < self.min_silos:
            raise ValueError("max_silos must be >= min_silos")
        if self.scale_down_cycles < 1:
            raise ValueError("scale_down_cycles must be >= 1")
        if self.scale_up_cycles < 1:
            raise ValueError("scale_up_cycles must be >= 1")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")


@dataclass(frozen=True)
class ScaleEvent:
    """One scaling action (for reports and tests)."""

    at: float
    direction: str  # "up" | "down"
    silo_id: str
    reason: str
    migrated: int = 0  # activations moved out (scale-down only)


class Autoscaler:
    """Timer-driven elasticity loop over add_silo / drain_silo."""

    def __init__(
        self,
        runtime: "AodbRuntime",
        monitor: "HealthMonitor",
        pool: list[SiloSpec],
        config: AutoscalerConfig | None = None,
    ) -> None:
        self.runtime = runtime
        self.monitor = monitor
        self.pool = list(pool)
        self.config = config or AutoscalerConfig()
        self.config.validate()
        self.cycles = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.silo_seconds = 0.0
        self.events: list[ScaleEvent] = []
        self._window = WindowedCpuLoad(runtime)
        self._idle_streak = 0
        self._hot_streak = 0
        self._last_action_at = float("-inf")
        self._task: "Task | None" = None
        runtime.metrics.register_fields("elastic", self, ("scale_ups", "scale_downs"))
        runtime.metrics.register_probe(
            "elastic.pool_available", lambda: len(self.pool)
        )

    # -- observation helpers ----------------------------------------------------

    def _live_silos(self) -> list:
        """Silos currently incurring cost (everything not crashed/stopped)."""
        return [
            silo
            for silo in self.runtime.silos()
            if not silo.crashed and not silo.stopping
        ]

    def _cooling_down(self) -> bool:
        now = self.runtime.scheduler.now
        return now - self._last_action_at < self.config.cooldown_seconds

    # -- the control loop -------------------------------------------------------

    async def run_cycle(self) -> ScaleEvent | None:
        """One observe → decide → (maybe) act pass."""
        self.cycles += 1
        live = self._live_silos()
        # Cost accrues for every live silo over the elapsed interval,
        # draining ones included: they are still running servers.
        self.silo_seconds += len(live) * self.config.interval
        loads = self._window.observe()  # excludes draining silos

        firing = set(self.monitor.active()) & set(self.config.scale_up_rules)
        mean_load = sum(loads.values()) / len(loads) if loads else 0.0
        hot = (
            self.config.scale_up_utilization is not None
            and mean_load > self.config.scale_up_utilization
        )
        self._hot_streak = self._hot_streak + 1 if hot else 0
        cpu_trigger = self._hot_streak >= self.config.scale_up_cycles
        if firing or cpu_trigger:
            self._idle_streak = 0
            if (
                not self._cooling_down()
                and self.pool
                and len(live) < self.config.max_silos
            ):
                self._hot_streak = 0
                reason = sorted(firing)[0] if firing else "cpu-utilization"
                return self._scale_up(reason)
            return None

        if loads and all(
            load < self.config.scale_down_utilization for load in loads.values()
        ):
            self._idle_streak += 1
        else:
            self._idle_streak = 0
        if (
            self._idle_streak >= self.config.scale_down_cycles
            and not self._cooling_down()
            and len(loads) > self.config.min_silos
        ):
            self._idle_streak = 0
            victim = min(loads, key=lambda s: loads[s])
            return await self._scale_down(victim)
        return None

    def _scale_up(self, reason: str) -> ScaleEvent:
        spec = self.pool.pop(0)
        self.runtime.add_silo(
            spec.silo_id,
            cores=spec.cores,
            speed=spec.speed,
            instance_type=spec.instance_type,
        )
        self.scale_ups += 1
        self._last_action_at = self.runtime.scheduler.now
        event = ScaleEvent(
            at=self.runtime.scheduler.now,
            direction="up",
            silo_id=spec.silo_id,
            reason=reason,
        )
        self.events.append(event)
        recorder = self.runtime.recorder
        if recorder is not None:
            recorder.journal("elastic").record("scale-up", spec.silo_id, reason)
        return event

    async def _scale_down(self, silo_id: str) -> ScaleEvent | None:
        silo = self.runtime.silo(silo_id)
        spec = SiloSpec(
            silo_id=silo.silo_id,
            cores=silo.cpu.cores,
            speed=silo.cpu.speed,
            instance_type=silo.instance_type,
        )
        # Take the lockout before draining: the drain itself advances
        # virtual time, and decisions made mid-drain would double-count.
        self._last_action_at = self.runtime.scheduler.now
        try:
            migrated = await self.runtime.drain_silo(silo_id)
        except Exception:
            return None  # e.g. the last peer crashed mid-decision
        self.scale_downs += 1
        self._last_action_at = self.runtime.scheduler.now
        self.pool.append(spec)
        event = ScaleEvent(
            at=self.runtime.scheduler.now,
            direction="down",
            silo_id=silo_id,
            reason="idle",
            migrated=migrated,
        )
        self.events.append(event)
        recorder = self.runtime.recorder
        if recorder is not None:
            recorder.journal("elastic").record("scale-down", silo_id, migrated)
        return event

    def attach(self, scheduler: "Scheduler") -> "Task":
        """Run a cycle every ``config.interval`` until :meth:`detach`."""
        if self._task is not None:
            raise RuntimeError("autoscaler already attached")

        async def loop() -> None:
            while True:
                await scheduler.sleep(self.config.interval)
                await self.run_cycle()

        self._task = scheduler.spawn_deferred(loop, name="autoscaler")
        return self._task

    def detach(self) -> None:
        """Stop the loop (idempotent)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
