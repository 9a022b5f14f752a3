"""Per-layer spans for a traced FlexLedger run.

The tracer wraps the public entry points of each ``repro`` module from
the benchmark's side; no file of the program changes. Each wrapped
call is a span: its wall time minus the time of the spans it called is
the layer's *self* time, so the layer times of one run add up to the
time spent inside any layer. Counts are taken at the same boundaries
and are deterministic; times are measurement only.

Layer names follow the module that owns the entry point:

==========================  ==============================================
metric prefix               entry points wrapped
==========================  ==============================================
``setup.install``           ``FlexNet.install``, ``DeviceRuntime.install``
``engine``                  ``EventLoop.run_until`` (events: ``schedule*``)
``network``                 ``Network._arrive`` (the scheduled callback),
                            ``Network.inject``, ``Network.receive``
``device``                  ``DeviceRuntime.process``
``exec.interp``             ``pipeline_exec._Interpreter.run``
``exec.compiled/compile``   ``fastpath.CompiledProgram.process``,
                            ``fastpath.compile_instance``
``flowcache``               ``fastpath.FlowCache.process``
``batch``                   ``batch.BatchExecutor.execute``
``tables``                  ``TableRules.lookup``, ``TableRules.lookup_batch``
``hash``                    ``util.stable_hash``
``telemetry``               ``TelemetryCollector.ingest_packet``
``reconfig`` (updates)      ``FlexNet.admit_tenant/evict_tenant``,
                            ``CloudEngine.drain_round``,
                            ``FlexNetController.transition_to``
``compose``                 ``Composer.compose``, ``Composer.admit``
``placement``               ``PlacementEngine.compile``,
                            ``fungibility.device_feasible``
``reconfig.apply``          ``ReconfigOrchestrator.apply``,
                            ``DeviceRuntime.begin_hitless_update``
``shard.plan``              ``scale.plan.plan_shards``
==========================  ==============================================

FlexScale's process backend forks its workers after the tracer is
installed, so the wrappers run inside each worker too. A worker resets
its copy of the tracer when it builds its ``ShardEngine`` and ships its
totals back on the ``ShardResult`` it returns; the coordinator merges
them with :meth:`Tracer.merge`.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

from repro.cloud.admission import CloudEngine
from repro.compiler import fungibility
from repro.compiler.placement import PlacementEngine
from repro.control.controller import FlexNetController
from repro.control.telemetry import TelemetryCollector
from repro.core.flexnet import FlexNet
from repro.errors import FlexNetError
from repro.lang.composition import Composer
from repro.runtime.device import DeviceRuntime
from repro.runtime.reconfig import ReconfigOrchestrator
from repro.scale import plan as scale_plan
from repro.scale.shard import ShardEngine
from repro.simulator import batch, fastpath, pipeline_exec, tables
from repro.simulator.engine import EventLoop
from repro.simulator.network import Network
from repro import util

#: Metrics the tracer keeps as a running maximum rather than a sum.
MAXIMA = ("device.max_queue_depth",)


class Tracer:
    """Collects per-layer counts and self times while installed."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = [[0.0]]
        self._install_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        self.counts.clear()
        self.times.clear()
        self._stack[:] = [[0.0]]

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts), "times": dict(self.times)}

    def merge(self, snapshot: dict) -> None:
        for key, value in snapshot["counts"].items():
            if key in MAXIMA:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        for key, value in snapshot["times"].items():
            self.times[key] += value

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, time_key, count_key=None, before=None, after=None):
        """Self-timed span around ``fn``. ``before(args)`` runs first and
        its value is handed to ``after(args, result, state)``."""
        stack = self._stack
        times = self.times
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                times[time_key] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if count_key is not None:
                    counts[count_key] += 1
            if after is not None:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, count_key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count_key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _install_timer(self, fn):
        """Inclusive wall time of the outermost install call (installs
        nest: ``FlexNet.install`` reaches ``DeviceRuntime.install``)."""
        times = self.times
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._install_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._install_depth -= 1
                if self._install_depth == 0:
                    times["setup.install_s"] += clock() - start

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name, make) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def _patch_function(self, module, name, make) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it
        by name, so ``from module import name`` callers see the span."""
        original = getattr(module, name)
        wrapped = make(original)
        for loaded in list(sys.modules.values()):
            if (
                loaded is not None
                and getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, name, None) is original
            ):
                self._patches.append((loaded, name, original))
                setattr(loaded, name, wrapped)

    # -- hooks ---------------------------------------------------------------

    def _device_before(self, args):
        device = args[0]
        if device._transition is not None:  # noqa: SLF001 - read-only probe
            self.counts["device.transition_visits"] += 1
        stats = device.stats
        return stats.queue_drops, stats.total_ops

    def _device_after(self, args, result, state):
        stats = args[0].stats
        counts = self.counts
        counts["device.queue_drops"] += stats.queue_drops - state[0]
        counts["exec.ops"] += stats.total_ops - state[1]
        if stats.max_queue_depth > counts["device.max_queue_depth"]:
            counts["device.max_queue_depth"] = stats.max_queue_depth

    def _cache_before(self, args):
        return args[0].stats.hits

    def _cache_after(self, args, result, state):
        self.counts["flowcache.hits"] += args[0].stats.hits - state

    def _batch_before(self, args):
        stats = args[0].stats
        return stats.memo_hits, stats.memo_misses

    def _batch_after(self, args, result, state):
        stats = args[0].stats
        counts = self.counts
        counts["batch.packets"] += len(args[1].packets)
        counts["batch.memo_hits"] += stats.memo_hits - state[0]
        counts["batch.memo_misses"] += stats.memo_misses - state[1]

    def _lookup_batch_after(self, args, result, state):
        self.counts["tables.lookups"] += len(result)

    def _apply_after(self, args, report, state):
        windows = report.device_windows.values()
        self.counts["reconfig.windows"] += len(windows)
        self.counts["reconfig.sim_window_s"] += sum(end - start for start, end in windows)

    def _update(self, fn):
        """A tenant update entry point: counted, failures counted."""
        span = self._span(fn, "reconfig.s", "reconfig.updates")
        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return span(*args, **kwargs)
            except FlexNetError:
                counts["reconfig.failed"] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def _shard_engine_init(self, fn):
        def wrapper(engine, *args, **kwargs):
            if os.getpid() != self._pid:
                # First engine in a forked worker: drop the coordinator's
                # totals the fork copied, keep only this worker's work.
                self._pid = os.getpid()
                self.reset()
            return fn(engine, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _shard_result(self, fn):
        root = self._pid

        def wrapper(engine):
            result = fn(engine)
            if os.getpid() != root:
                result.ledger = self.snapshot()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        span = self._span
        self._patch(FlexNet, "install", self._install_timer)
        self._patch(DeviceRuntime, "install", self._install_timer)

        self._patch(EventLoop, "run_until", lambda f: span(f, "engine.self_s"))
        self._patch(EventLoop, "schedule_at", lambda f: self._counter(f, "engine.events"))
        self._patch(EventLoop, "schedule", lambda f: self._counter(f, "engine.events"))

        self._patch(Network, "_arrive", lambda f: span(f, "network.self_s", "network.arrivals"))
        self._patch(Network, "inject", lambda f: span(f, "network.self_s"))
        self._patch(Network, "receive", lambda f: span(f, "network.self_s"))

        self._patch(
            DeviceRuntime,
            "process",
            lambda f: span(
                f, "device.self_s", "device.visits", self._device_before, self._device_after
            ),
        )
        self._patch(
            pipeline_exec._Interpreter,  # noqa: SLF001 - the interpreter's entry point
            "run",
            lambda f: span(f, "exec.interp_s", "exec.interp_calls"),
        )
        self._patch(
            fastpath.CompiledProgram,
            "process",
            lambda f: span(f, "exec.compiled_s", "exec.compiled_calls"),
        )
        self._patch_function(
            fastpath, "compile_instance", lambda f: span(f, "exec.compile_s", "exec.compiles")
        )
        self._patch(
            fastpath.FlowCache,
            "process",
            lambda f: span(
                f, "flowcache.s", "flowcache.lookups", self._cache_before, self._cache_after
            ),
        )
        self._patch(
            batch.BatchExecutor,
            "execute",
            lambda f: span(f, "batch.s", None, self._batch_before, self._batch_after),
        )
        self._patch(
            tables.TableRules, "lookup", lambda f: span(f, "tables.lookup_s", "tables.lookups")
        )
        self._patch(
            tables.TableRules,
            "lookup_batch",
            lambda f: span(f, "tables.lookup_s", None, None, self._lookup_batch_after),
        )
        self._patch_function(util, "stable_hash", lambda f: span(f, "hash.s", "hash.calls"))
        self._patch(
            TelemetryCollector,
            "ingest_packet",
            lambda f: span(f, "telemetry.s", "telemetry.ingests"),
        )

        self._patch(FlexNet, "admit_tenant", self._update)
        self._patch(FlexNet, "evict_tenant", self._update)
        self._patch(CloudEngine, "drain_round", lambda f: span(f, "reconfig.s"))
        self._patch(FlexNetController, "transition_to", lambda f: span(f, "reconfig.s"))
        self._patch(Composer, "compose", lambda f: span(f, "compose.s", "compose.calls"))
        self._patch(Composer, "admit", lambda f: span(f, "compose.s", "compose.tenant_admits"))
        self._patch(
            PlacementEngine, "compile", lambda f: span(f, "placement.s", "placement.compiles")
        )
        self._patch(
            fungibility,
            "device_feasible",
            lambda f: span(f, "placement.s", "placement.feasibility_checks"),
        )
        self._patch(
            ReconfigOrchestrator,
            "apply",
            lambda f: span(f, "reconfig.apply_s", None, None, self._apply_after),
        )
        self._patch(
            DeviceRuntime, "begin_hitless_update", lambda f: span(f, "reconfig.apply_s")
        )

        self._patch_function(scale_plan, "plan_shards", lambda f: span(f, "shard.plan_s"))
        self._patch(ShardEngine, "__init__", self._shard_engine_init)
        self._patch(ShardEngine, "result", self._shard_result)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
