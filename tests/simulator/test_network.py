"""Network transport tests."""

import pytest

from repro.errors import SimulationError
from repro.simulator.engine import EventLoop
from repro.simulator.metrics import RunMetrics
from repro.simulator.network import Network
from repro.simulator.packet import Verdict, make_packet


class FakeNode:
    """A configurable PacketProcessor."""

    def __init__(self, name, latency_s=1e-6, drop=False, down_until=0.0):
        self.name = name
        self.latency_s = latency_s
        self.drop = drop
        self.down_until = down_until
        self.seen = []

    def available(self, now):
        return now >= self.down_until

    def process(self, packet, now):
        self.seen.append(packet.packet_id)
        if self.drop:
            packet.meta["drop_flag"] = 1
            packet.verdict = Verdict.DROP
        return self.latency_s


def two_hop_network():
    net = Network(EventLoop())
    a, b_ = FakeNode("a"), FakeNode("b")
    net.add_node(a)
    net.add_node(b_)
    net.add_link("a", "b", 1e-3)
    net.define_path("p", ["a", "b"])
    return net, a, b_


class TestTopology:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node(FakeNode("a"))
        with pytest.raises(SimulationError):
            net.add_node(FakeNode("a"))

    def test_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            Network().node("ghost")

    def test_link_requires_nodes(self):
        net = Network()
        net.add_node(FakeNode("a"))
        with pytest.raises(SimulationError):
            net.add_link("a", "ghost")

    def test_path_requires_links(self):
        net = Network()
        net.add_node(FakeNode("a"))
        net.add_node(FakeNode("b"))
        with pytest.raises(SimulationError):
            net.define_path("p", ["a", "b"])

    def test_links_bidirectional(self):
        net, *_ = two_hop_network()
        assert net.link_latency("b", "a") == 1e-3


class TestTransport:
    def test_packet_traverses_path(self):
        net, a, b_ = two_hop_network()
        metrics = RunMetrics()
        packet = make_packet(1, 2)
        net.inject(packet, "p", 0.0, metrics)
        net.loop.run()
        assert a.seen == [packet.packet_id]
        assert b_.seen == [packet.packet_id]
        assert packet.path == ["a", "b"]
        assert metrics.delivered == 1

    def test_latency_accumulates_links_and_processing(self):
        net, a, b_ = two_hop_network()
        a.latency_s = 0.5e-3
        metrics = RunMetrics()
        packet = make_packet(1, 2, created_at=0.0)
        net.inject(packet, "p", 0.0, metrics)
        net.loop.run()
        # link 1ms + processing a 0.5ms (+ b's processing)
        assert packet.latency_s == pytest.approx(1.5e-3 + b_.latency_s, rel=1e-6)

    def test_program_drop_stops_path(self):
        net, a, b_ = two_hop_network()
        a.drop = True
        metrics = RunMetrics()
        net.inject(make_packet(1, 2), "p", 0.0, metrics)
        net.loop.run()
        assert b_.seen == []
        assert metrics.dropped_by_program == 1

    def test_unavailable_node_loses_packet(self):
        net, a, b_ = two_hop_network()
        b_.down_until = 10.0
        metrics = RunMetrics()
        net.inject(make_packet(1, 2), "p", 0.0, metrics)
        net.loop.run()
        assert metrics.lost_by_infrastructure == 1
        assert metrics.delivered == 0

    def test_on_done_callback(self):
        net, *_ = two_hop_network()
        done = []
        net.inject(make_packet(1, 2), "p", 0.0, None, on_done=done.append)
        net.loop.run()
        assert len(done) == 1

    def test_explicit_hop_list(self):
        net, a, b_ = two_hop_network()
        metrics = RunMetrics()
        net.inject(make_packet(1, 2), ["a"], 0.0, metrics)
        net.loop.run()
        assert metrics.delivered == 1
        assert b_.seen == []

    def test_empty_path_rejected(self):
        net, *_ = two_hop_network()
        with pytest.raises(SimulationError):
            net.inject(make_packet(1, 2), [], 0.0)


class TestInflightArrivals:
    def test_plain_network_reports_pending_hops(self):
        net, *_ = two_hop_network()
        first, second = make_packet(1, 2), make_packet(3, 4)
        net.inject(second, "p", 2e-3)
        net.inject(first, "p", 0.0)
        assert net.inflight_arrivals() == [
            (0.0, 1, first, ["a", "b"], 0),
            (2e-3, 0, second, ["a", "b"], 0),
        ]
        # After hop "a" the first packet is in flight toward "b".
        net.loop.run_until(1e-4)
        (at_time, _, packet, hops, index), _ = net.inflight_arrivals()
        assert (packet, hops, index) == (first, ["a", "b"], 1)
        assert at_time == pytest.approx(1e-6 + 1e-3)
        net.loop.run()
        assert net.inflight_arrivals() == []

    def test_refuses_an_event_that_is_not_an_arrival(self):
        net, *_ = two_hop_network()
        net.inject(make_packet(1, 2), "p", 0.0)
        net.loop.schedule_at(0.25, lambda: None)
        with pytest.raises(SimulationError, match="0.25 s"):
            net.inflight_arrivals()

    def test_refuses_another_networks_arrival_on_a_shared_loop(self):
        net, *_ = two_hop_network()
        other = Network(net.loop)
        other.add_node(FakeNode("c"))
        other.inject(make_packet(1, 2), ["c"], 0.5)
        assert len(other.inflight_arrivals()) == 1
        with pytest.raises(SimulationError, match="0.5 s"):
            net.inflight_arrivals()


class TestMetrics:
    def test_loss_and_delivery_rates(self):
        net, a, b_ = two_hop_network()
        b_.down_until = 0.0005  # in-flight packets at t<~0 lost at b
        metrics = RunMetrics()
        for i in range(10):
            net.inject(make_packet(1, 2, created_at=i * 0.001), "p", i * 0.001, metrics)
        net.loop.run()
        assert metrics.sent == 10
        assert metrics.delivered + metrics.lost_by_infrastructure == 10
        assert metrics.loss_rate == pytest.approx(
            metrics.lost_by_infrastructure / 10
        )

    def test_latency_percentiles(self):
        from repro.simulator.metrics import LatencyStats

        stats = LatencyStats()
        for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
            stats.record(value)
        assert stats.mean == 3.0
        assert stats.percentile(0.0) == 1.0
        assert stats.percentile(0.99) == 5.0
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0


class TestLatencyReservoir:
    """The percentile reservoir is bounded and seeded: long runs stay
    O(reservoir_size) in memory, exact stats stay exact, and repeated
    runs reproduce the same percentile estimates."""

    def test_memory_bounded_exact_stats_intact(self):
        from repro.simulator.metrics import LatencyStats

        stats = LatencyStats(reservoir_size=256)
        n = 50_000
        for i in range(n):
            stats.record(float(i))
        assert len(stats.samples) == 256
        assert stats.count == n
        assert stats.minimum == 0.0
        assert stats.maximum == float(n - 1)
        assert stats.mean == pytest.approx((n - 1) / 2)
        # The estimate comes from a uniform sample of the stream.
        assert stats.percentile(0.5) == pytest.approx(n / 2, rel=0.15)

    def test_deterministic_across_runs(self):
        from repro.simulator.metrics import LatencyStats

        def run():
            stats = LatencyStats(reservoir_size=64)
            for i in range(5000):
                stats.record(float((i * 7919) % 1000))
            return stats

        first, second = run(), run()
        assert first.samples == second.samples
        assert first.percentile(0.9) == second.percentile(0.9)

    def test_below_cap_percentiles_exact(self):
        from repro.simulator.metrics import LatencyStats

        stats = LatencyStats(reservoir_size=4096)
        for value in range(100):
            stats.record(float(value))
        assert stats.percentile(0.5) == 50.0
        assert stats.percentile(0.99) == 99.0
