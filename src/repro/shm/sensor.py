"""The Sensor actor.

A sensor is an active entity (it can be relocated and emits multiple data
streams), so it is its own actor (§4.2).  The benchmarking tool "simulates
sensors by tasks that each call a sensor grain and insert 10 data points"
per physical channel per second; the grain disaggregates the batch to its
channel actors, which (under prefer-local placement, §5) live on the same
silo, so the fan-out is loopback-cheap.
"""

from __future__ import annotations

from ..errors import UnknownEntityError
from ..fold import empty_fold, fold_values, merge_fold
from ..runtime.actor import Actor, actor_method


class Sensor(Actor):
    """One physical sensor with one or more channels."""

    durable = True
    placement = "pinned"

    async def configure(
        self,
        org_id: str,
        sensor_type: str,
        channel_configs: list[dict],
        virtual_channel_config: dict | None = None,
        position: tuple[float, float] | None = None,
        dedup_ingest: bool = False,
    ) -> dict:
        """Provision this sensor and configure its channel actors.

        ``channel_configs`` is a list of dicts with at least ``channel_id``;
        remaining keys are forwarded to
        :meth:`~repro.shm.channel.PhysicalSensorChannel.configure`.  Routing
        channel configuration through the sensor matters: with prefer-local
        placement the channels activate on the sensor's silo.

        With ``dedup_ingest`` the sensor keeps a per-channel timestamp
        watermark and drops already-seen readings before fanning out, so a
        duplicated insert request is acknowledged without re-storing.
        """
        self.state["org_id"] = org_id
        self.state["sensor_type"] = sensor_type
        self.state["position"] = position
        self.state["dedup_ingest"] = dedup_ingest
        self.state["channel_ids"] = [c["channel_id"] for c in channel_configs]
        self.state["virtual_channel_id"] = (
            virtual_channel_config["channel_id"] if virtual_channel_config else None
        )
        self.mark_dirty()
        for config in channel_configs:
            config = dict(config)
            channel_id = config.pop("channel_id")
            channel = self.context.actor("PhysicalSensorChannel", channel_id)
            await channel.ask(
                "configure",
                org_id=org_id,
                sensor_id=self.actor_id,
                sensor_type=sensor_type,
                **config,
            )
        if virtual_channel_config is not None:
            config = dict(virtual_channel_config)
            channel_id = config.pop("channel_id")
            virtual = self.context.actor("VirtualSensorChannel", channel_id)
            await virtual.ask(
                "configure",
                org_id=org_id,
                sensor_id=self.actor_id,
                **config,
            )
        return {
            "sensor_id": self.actor_id,
            "channels": list(self.state["channel_ids"]),
            "virtual_channel": self.state["virtual_channel_id"],
        }

    async def ingest(self, batches: dict[str, list[tuple[float, float]]]) -> int:
        """Insert one request's data points, per channel.

        ``batches`` maps channel id to a list of ``(timestamp, value)``
        pairs.  The sensor forwards each batch to its channel actor and
        acknowledges only when all channels stored theirs — so the caller's
        measured latency covers the full ingestion pipeline, as in the
        paper's benchmark.
        """
        known = self.state.get("channel_ids", ())
        for channel_id in batches:
            if channel_id not in known:
                unknown = sorted(set(batches) - set(known))
                raise UnknownEntityError(
                    f"sensor {self.actor_id}: unknown channels {unknown}"
                )
        if self.state.get("dedup_ingest"):
            watermarks = self.state.setdefault("ingest_watermark", {})
            fresh_batches: dict[str, list[tuple[float, float]]] = {}
            for channel_id, points in batches.items():
                mark = watermarks.get(channel_id)
                fresh = [
                    p for p in points if mark is None or p[0] > mark
                ]
                if fresh:
                    watermarks[channel_id] = max(p[0] for p in fresh)
                    fresh_batches[channel_id] = fresh
            self.mark_dirty()
            batches = fresh_batches
            if not batches:
                return 0
        futures = [
            self.context.actor("PhysicalSensorChannel", channel_id).ask(
                "ingest", points
            )
            for channel_id, points in batches.items()
        ]
        # Incremental view maintenance rides the same ack: fold the fresh
        # points once, merge that fold into this sensor's running stats
        # (the pull fallback reads them via view_sample) and, when
        # standing queries are registered over sensors, emit it as the
        # delta whose fold ack gates ours — so an acked insert is visible
        # in every registered view exactly once.
        batch_fold = fold_values(
            value for points in batches.values() for _ts, value in points
        )
        stats = self.state.get("view_stats")
        if stats is None:
            stats = self.state["view_stats"] = empty_fold()
        merge_fold(stats, batch_fold)
        self.mark_dirty()
        database = self.context.runtime.database
        if database is not None:
            views = getattr(database, "views", None)
            if views is not None and views.has_views_for(self.key.type_name):
                delta_tickets = views.emit_from(self, batches, batch_fold)
                if delta_tickets:
                    await self.context.runtime.scheduler.gather(delta_tickets)
        stored = await self.context.runtime.scheduler.gather(futures)
        return sum(stored)

    @actor_method(read_only=True)
    async def view_sample(self, group_by: str | None = None) -> dict:
        """This sensor's running fold state, for pull-based view reads.

        ``db.view(..., source="Sensor", group_by=...)`` fans this out over
        the extent and folds the rows client-side — the scan a registered
        materialized view replaces with a single shard ask.
        """
        stats = self.state.get("view_stats") or empty_fold()
        group = "all" if group_by is None else str(self.state.get(group_by))
        return {
            "group": group,
            "entity": self.actor_id,
            "count": stats[0],
            "total": stats[1],
            "vmin": stats[2],
            "vmax": stats[3],
        }

    @actor_method(read_only=True)
    async def storage_stats(self) -> dict:
        """Summed tiered-window memory accounting over all channels."""
        channel_ids = list(self.state.get("channel_ids", ()))
        futures = [
            self.context.actor("PhysicalSensorChannel", channel_id).ask(
                "storage_stats"
            )
            for channel_id in channel_ids
        ]
        virtual_id = self.state.get("virtual_channel_id")
        if virtual_id:
            futures.append(
                self.context.actor("VirtualSensorChannel", virtual_id).ask(
                    "storage_stats"
                )
            )
        per_channel = await self.context.runtime.scheduler.gather(futures)
        total = {
            "points": 0, "head_points": 0, "sealed_points": 0, "blocks": 0,
            "block_bytes": 0, "live_bytes": 0, "raw_equivalent_bytes": 0,
        }
        for stats in per_channel:
            for key in total:
                total[key] += stats[key]
        total["channels"] = len(per_channel)
        total["compression_ratio"] = (
            (16.0 * total["sealed_points"]) / total["block_bytes"]
            if total["block_bytes"]
            else 0.0
        )
        return total

    async def relocate(self, position: tuple[float, float]) -> tuple:
        """Move the sensor (sensors are relocatable active entities)."""
        self.state["position"] = position
        self.mark_dirty()
        return tuple(position)

    @actor_method(read_only=True)
    async def describe(self) -> dict:
        """Sensor metadata."""
        return {
            "sensor_id": self.actor_id,
            "org_id": self.state.get("org_id"),
            "sensor_type": self.state.get("sensor_type"),
            "position": self.state.get("position"),
            "channel_ids": list(self.state.get("channel_ids", ())),
            "virtual_channel_id": self.state.get("virtual_channel_id"),
        }
