"""The controller's global topology view (§1, §3.4).

"The network is piloted by a central controller that maintains a global
view of the topology and traffic patterns, as well as the locations and
resource requirements of the network apps."

Built on networkx: vertices are devices (with their target models and
tiers), edges carry link latency. The view answers the two questions
placement needs: *which path* connects two endpoints, and *what slice*
(ordered DeviceSpec list) lies along it. It also tracks mixed
deployments — runtime programmable, compile-time programmable, and
non-programmable elements — which §3.4 says network control must be
aware of.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.compiler.plan import DeviceSpec
from repro.compiler.placement import NetworkSlice
from repro.errors import UnknownDeviceError
from repro.targets.base import Target
from repro.targets.resources import ResourceVector


@dataclass
class DeviceInfo:
    name: str
    target: Target | None  # None == non-programmable element
    #: resources committed across all deployed datapaths.
    used: ResourceVector

    @property
    def programmable(self) -> bool:
        return self.target is not None

    @property
    def runtime_programmable(self) -> bool:
        return self.target is not None and self.target.reconfig.hitless


class TopologyView:
    """Mutable global topology + resource ledger."""

    def __init__(self):
        self._graph = nx.Graph()
        self._devices: dict[str, DeviceInfo] = {}

    # -- construction ---------------------------------------------------------

    def add_device(self, name: str, target: Target | None) -> None:
        if name in self._devices:
            raise UnknownDeviceError(f"device {name!r} already exists")
        self._devices[name] = DeviceInfo(name=name, target=target, used=ResourceVector())
        self._graph.add_node(name)

    def add_link(self, a: str, b: str, latency_s: float = 1e-6) -> None:
        self.device(a)
        self.device(b)
        self._graph.add_edge(a, b, latency_s=latency_s)

    def remove_device(self, name: str) -> None:
        self.device(name)
        self._graph.remove_node(name)
        del self._devices[name]

    # -- queries --------------------------------------------------------------

    def device(self, name: str) -> DeviceInfo:
        if name not in self._devices:
            raise UnknownDeviceError(f"unknown device {name!r}")
        return self._devices[name]

    @property
    def runtime_programmable_devices(self) -> list[str]:
        return sorted(n for n, d in self._devices.items() if d.runtime_programmable)

    @property
    def legacy_devices(self) -> list[str]:
        """Compile-time-only or non-programmable elements in the mix."""
        return sorted(n for n, d in self._devices.items() if not d.runtime_programmable)

    def link_latency(self, a: str, b: str) -> float:
        data = self._graph.get_edge_data(a, b)
        if data is None:
            raise UnknownDeviceError(f"no link {a!r} -- {b!r}")
        return data["latency_s"]

    def shortest_path(self, source: str, destination: str) -> list[str]:
        self.device(source)
        self.device(destination)
        try:
            return nx.shortest_path(
                self._graph, source, destination, weight="latency_s"
            )
        except nx.NetworkXNoPath as exc:
            raise UnknownDeviceError(f"no path {source!r} -> {destination!r}") from exc

    def path_avoiding(self, source: str, destination: str, avoid: set[str]) -> list[str]:
        """Shortest path that skips the ``avoid`` devices entirely —
        the health monitor's quarantine detour. Raises when no such
        route exists (the network stays degraded instead)."""
        self.device(source)
        self.device(destination)
        if source in avoid or destination in avoid:
            raise UnknownDeviceError(
                f"cannot route around an endpoint ({sorted(avoid & {source, destination})})"
            )
        view = nx.restricted_view(self._graph, avoid & set(self._graph.nodes), set())
        try:
            return nx.shortest_path(view, source, destination, weight="latency_s")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise UnknownDeviceError(
                f"no path {source!r} -> {destination!r} avoiding {sorted(avoid)}"
            ) from exc

    def detour_path(self, source: str, destination: str, via: str) -> list[str]:
        """Shortest path forced through ``via`` (§3.3: "routing detours
        to a program component"). Raises if the two legs would revisit a
        node (loops are not routable)."""
        self.device(via)
        first_leg = self.shortest_path(source, via)
        second_leg = self.shortest_path(via, destination)
        revisited = (set(first_leg) & set(second_leg)) - {via}
        if revisited:
            raise UnknownDeviceError(
                f"detour via {via!r} revisits {sorted(revisited)}; no loop-free route"
            )
        return first_leg + second_leg[1:]

    def programmable_path(self, source: str, destination: str) -> list[str]:
        """Shortest path preferring programmable hops: non-programmable
        devices get a heavy weight so detours through programmable
        elements win when they exist (the paper's routing co-design)."""

        def weight(u: str, v: str, data: dict) -> float:
            penalty = 0.0
            if not self._devices[v].programmable:
                penalty += 1.0  # 1 virtual second ~ "avoid if possible"
            return data["latency_s"] + penalty

        return nx.shortest_path(self._graph, source, destination, weight=weight)

    # -- slices ----------------------------------------------------------------

    def slice_along(self, path: list[str]) -> NetworkSlice:
        """Build the compiler's NetworkSlice for a concrete path,
        skipping non-programmable hops (they forward but host nothing)."""
        specs: list[DeviceSpec] = []
        previous: str | None = None
        for name in path:
            info = self.device(name)
            if info.target is None:
                previous = name
                continue
            ingress = self.link_latency(previous, name) * 1e9 if previous is not None else 0.0
            specs.append(
                DeviceSpec(
                    name=name,
                    target=info.target,
                    used=info.used,
                    ingress_link_ns=ingress,
                )
            )
            previous = name
        return NetworkSlice(devices=specs)

    def slice_between(self, source: str, destination: str) -> tuple[list[str], NetworkSlice]:
        path = self.shortest_path(source, destination)
        return path, self.slice_along(path)

    # -- resource ledger ---------------------------------------------------------

    def commit(self, device_name: str, demand: ResourceVector) -> None:
        info = self.device(device_name)
        info.used = info.used + demand

    def release(self, device_name: str, demand: ResourceVector) -> None:
        info = self.device(device_name)
        info.used = info.used - demand

    def utilization(self, device_name: str) -> float:
        info = self.device(device_name)
        if info.target is None:
            return 0.0
        return info.used.utilization_of(info.target.capacity)
