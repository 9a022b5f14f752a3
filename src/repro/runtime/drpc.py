"""Data plane RPC (dRPC) services and discovery (§3.4).

"The infrastructure program will provide a set of data plane RPC
services for common utilities (e.g., app migration or state
replication). Tenant datapaths need not reinvent the wheel but rather
invoke these remote services via data plane RPC calls."

The model: every device may register services; a call from device A to
service S on device B costs one in-band round trip (link latency +
data-plane execution of the handler, nanoseconds per op), whereas the
same operation through the controller costs two control-channel RTTs
plus software handling (milliseconds). Discovery is either a
control-plane lookup or the in-network registry protocol
(:class:`RpcRegistry` gossips service advertisements with a propagation
delay per hop).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import FlexNetError, RpcError
from repro.limits import CONTROL_PROCESSING_S, CONTROL_RTT_S

__all__ = [
    "CONTROL_PROCESSING_S",
    "CONTROL_RTT_S",
    "DrpcFabric",
    "RpcRegistry",
    "RpcStats",
    "ServiceSpec",
    "make_migrate_service",
    "make_state_read_service",
    "make_state_write_service",
]

Handler = Callable[[tuple[int, ...]], tuple[int, ...]]


@dataclass(frozen=True)
class ServiceSpec:
    """One advertised dRPC service."""

    name: str
    device: str
    #: certified per-invocation cost in abstract ops (drives latency).
    ops: int
    handler: Handler


@dataclass
class RpcStats:
    calls: int = 0
    total_latency_s: float = 0.0
    failures: int = 0
    #: failed attempts that were retried (and the backoff they cost).
    retries: int = 0
    backoff_s: float = 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.total_latency_s / self.calls if self.calls else 0.0


class RpcRegistry:
    """In-network service registry with gossip-style propagation.

    Registration on device D becomes visible to a device H hops away
    after ``hops * advertisement_interval_s`` of virtual time; lookups
    before then raise :class:`RpcError` (service not yet discovered),
    modelling the real-time discovery protocol the paper sketches.
    """

    def __init__(self, advertisement_interval_s: float = 0.05):
        self._services: dict[str, ServiceSpec] = {}
        self._registered_at: dict[str, float] = {}
        self.advertisement_interval_s = advertisement_interval_s

    def register(self, service: ServiceSpec, now: float = 0.0) -> None:
        if service.name in self._services:
            raise RpcError(f"service {service.name!r} already registered")
        self._services[service.name] = service
        self._registered_at[service.name] = now

    def unregister(self, name: str) -> None:
        self._services.pop(name, None)
        self._registered_at.pop(name, None)

    def lookup(self, name: str, now: float = 0.0, hops_from_provider: int = 0) -> ServiceSpec:
        if name not in self._services:
            raise RpcError(f"no such dRPC service {name!r}")
        visible_at = self._registered_at[name] + hops_from_provider * self.advertisement_interval_s
        if now < visible_at:
            raise RpcError(
                f"service {name!r} not yet discovered at this hop "
                f"(visible at t={visible_at:.3f}, now t={now:.3f})"
            )
        return self._services[name]


class DrpcFabric:
    """Executes dRPC calls between devices and costs them.

    ``per_op_ns`` of the *serving* device determines handler time; the
    caller pays one link round trip. :meth:`call_via_controller` costs
    the software path for the same operation, for E10's comparison.
    """

    def __init__(self, registry: RpcRegistry, link_latency_s: float = 1e-6):
        self._registry = registry
        self._link_latency_s = link_latency_s
        self.stats: dict[str, RpcStats] = {}
        #: per-op handler speed per device (ns); callers set this from
        #: their targets when wiring the fabric.
        self.device_per_op_ns: dict[str, float] = {}
        #: optional FlexFault injector: when set, calls may fail at the
        #: handler (modelling a flaky in-band service).
        self.injector = None
        #: FlexScope: set by :meth:`repro.observe.Observer.enable`; each
        #: call becomes one span (failures end with status="error").
        self.observer = None
        #: FlexHA fencing: when set, every call carrying an ``epoch``
        #: runs ``epoch_gate(serving_device, epoch) -> bool`` before the
        #: handler; a False verdict (stale epoch) raises RpcError and
        #: the handler never runs.
        self.epoch_gate: Callable[[str, int], bool] | None = None

    def set_device_speed(self, device: str, per_op_ns: float) -> None:
        self.device_per_op_ns[device] = per_op_ns

    def call(
        self,
        service_name: str,
        args: tuple[int, ...],
        caller_device: str,
        now: float = 0.0,
        hops: int = 1,
        epoch: int | None = None,
    ) -> tuple[tuple[int, ...], float]:
        """In-band invocation; returns (result, latency_seconds).

        ``epoch`` is the caller's fencing epoch (FlexHA): when the
        fabric has an ``epoch_gate`` installed, a stale epoch is
        rejected at the serving device before the handler runs.
        """
        observer = self.observer
        if observer is None:
            return self._call(service_name, args, caller_device, now, hops, epoch)
        span = observer.tracer.start_span(
            f"drpc:{service_name}",
            "drpc",
            now,
            service=service_name,
            caller=caller_device,
            hops=hops,
        )
        try:
            result, latency = self._call(service_name, args, caller_device, now, hops, epoch)
        except RpcError as exc:
            observer.tracer.end_span(span, now, status="error", error=str(exc))
            raise
        observer.tracer.end_span(span, now + latency, latency_s=round(latency, 9))
        return result, latency

    def _call(
        self,
        service_name: str,
        args: tuple[int, ...],
        caller_device: str,
        now: float,
        hops: int,
        epoch: int | None = None,
    ) -> tuple[tuple[int, ...], float]:
        stats = self.stats.setdefault(service_name, RpcStats())
        try:
            service = self._registry.lookup(service_name, now=now, hops_from_provider=hops)
        except RpcError:
            stats.failures += 1
            raise
        if (
            epoch is not None
            and self.epoch_gate is not None
            and not self.epoch_gate(service.device, epoch)
        ):
            stats.failures += 1
            raise RpcError(
                f"service {service_name!r} on {service.device!r} rejected "
                f"stale fencing epoch {epoch}"
            )
        per_op_ns = self.device_per_op_ns.get(service.device, 2.0)
        handler_s = service.ops * per_op_ns * 1e-9
        latency = 2 * hops * self._link_latency_s + handler_s
        if self.injector is not None and self.injector.drpc_failure(service_name):
            stats.failures += 1
            raise RpcError(f"service {service_name!r} handler failed: injected fault")
        try:
            result = service.handler(args)
        except (FlexNetError, ValueError, TypeError, ArithmeticError, LookupError) as exc:
            # Expected handler failures (bad args, missing state, domain
            # errors) become RpcErrors the caller can retry; genuine bugs
            # (AttributeError, RuntimeError, ...) propagate unmasked.
            stats.failures += 1
            raise RpcError(f"service {service_name!r} handler failed: {exc}") from exc
        stats.calls += 1
        stats.total_latency_s += latency
        return result, latency

    def call_with_retry(
        self,
        service_name: str,
        args: tuple[int, ...],
        caller_device: str,
        now: float = 0.0,
        hops: int = 1,
        policy=None,
        epoch: int | None = None,
    ) -> tuple[tuple[int, ...], float]:
        """In-band invocation with FlexFault's recovery semantics:
        failed calls are retried under an exponential-backoff
        :class:`~repro.faults.recovery.RetryPolicy`; the backoff spent
        is added to the reported latency. Raises the final
        :class:`~repro.errors.RpcError` once attempts are exhausted."""
        if policy is None:
            from repro.faults.recovery import RetryPolicy

            policy = RetryPolicy()
        stats = self.stats.setdefault(service_name, RpcStats())
        waited = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            try:
                result, latency = self.call(
                    service_name,
                    args,
                    caller_device,
                    now=now + waited,
                    hops=hops,
                    epoch=epoch,
                )
            except RpcError:
                if attempt >= policy.max_attempts:
                    raise
                backoff = policy.backoff_s(attempt)
                stats.retries += 1
                stats.backoff_s += backoff
                waited += backoff
                if self.observer is not None:
                    self.observer.tracer.event(
                        "drpc_retry",
                        now + waited,
                        service=service_name,
                        attempt=attempt,
                        backoff_s=round(backoff, 9),
                    )
                continue
            return result, latency + waited
        raise RpcError(f"service {service_name!r}: retry budget exhausted")  # unreachable

    def call_via_controller(
        self,
        service_name: str,
        args: tuple[int, ...],
        now: float = 0.0,
    ) -> tuple[tuple[int, ...], float]:
        """The software alternative: device -> controller -> device."""
        service = self._registry.lookup(service_name, now=now, hops_from_provider=0)
        stats = self.stats.setdefault(f"{service_name}@controller", RpcStats())
        latency = 2 * CONTROL_RTT_S + CONTROL_PROCESSING_S
        result = service.handler(args)
        stats.calls += 1
        stats.total_latency_s += latency
        return result, latency


# -- standard infrastructure services ------------------------------------------


def make_state_read_service(device: str, map_state, name: str = "state_read") -> ServiceSpec:
    """Read one key from a device-resident map (replication primitive)."""

    def handler(args: tuple[int, ...]) -> tuple[int, ...]:
        return (map_state.get(tuple(args)),)

    return ServiceSpec(name=name, device=device, ops=8, handler=handler)


def make_state_write_service(device: str, map_state, name: str = "state_write") -> ServiceSpec:
    """Write one (key..., value) into a device-resident map."""

    def handler(args: tuple[int, ...]) -> tuple[int, ...]:
        if not args:
            raise RpcError("state_write needs key and value")
        *key, value = args
        map_state.put(tuple(key), value)
        return (1,)

    return ServiceSpec(name=name, device=device, ops=10, handler=handler)


def make_migrate_service(device: str, source_state, name: str = "migrate_chunk") -> ServiceSpec:
    """Stream a chunk of map entries (app-migration primitive): args are
    (offset, limit); returns a flattened (k..., v) sequence."""

    def handler(args: tuple[int, ...]) -> tuple[int, ...]:
        offset = args[0] if args else 0
        limit = args[1] if len(args) > 1 else 16
        flat: list[int] = []
        for index, (key, value) in enumerate(source_state.items()):
            if index < offset:
                continue
            if index >= offset + limit:
                break
            flat.extend(key)
            flat.append(value)
        return tuple(flat)

    return ServiceSpec(name=name, device=device, ops=32, handler=handler)
