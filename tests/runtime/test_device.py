"""Device runtime tests: version transitions, state sharing, reflash."""

import pytest

from repro.errors import ReconfigError
from repro.lang.delta import apply_delta, parse_delta
from repro.runtime.device import DeviceRuntime
from repro.simulator.packet import make_packet
from repro.targets import drmt_switch, rmt_switch

ADD_GUARD = """
delta add_guard {
  add action g_drop() { mark_drop(); }
  add table guard { key: ipv4.src; actions: g_drop; size: 16; default: g_drop; }
  insert guard before acl;
}
"""

ADD_PROBE = "delta add_probe { add map probe { key: ipv4.src; value: u32; max_entries: 16; } }"


def make_device(base_program, target=None):
    device = DeviceRuntime("d", target or drmt_switch("d"))
    device.install(base_program)
    return device


class TestInstallAndProcess:
    def test_process_returns_positive_latency(self, base_program):
        device = make_device(base_program)
        latency = device.process(make_packet(1, 2), 0.0)
        assert latency > 0
        assert device.stats.processed == 1

    def test_version_stamped_on_packet(self, base_program):
        device = make_device(base_program)
        packet = make_packet(1, 2)
        device.process(packet, 0.0)
        assert packet.versions_seen["d"] == base_program.version

    def test_energy_accumulates(self, base_program):
        device = make_device(base_program)
        device.process(make_packet(1, 2), 0.0)
        assert device.stats.energy_nj > 0

    def test_program_drop_counted(self, base_program):
        device = make_device(base_program)
        packet = make_packet(1, 2, ttl=0)  # ttl_guard drops
        device.process(packet, 0.0)
        assert device.stats.dropped_by_program == 1


class TestHitlessUpdate:
    def new_version(self, base_program):
        new_program, _ = apply_delta(base_program, parse_delta(ADD_GUARD))
        return new_program

    def test_requires_hitless_target(self, base_program):
        device = DeviceRuntime("d", rmt_switch("d", runtime_capable=False))
        device.install(base_program)
        with pytest.raises(ReconfigError, match="not hitlessly"):
            device.begin_hitless_update(self.new_version(base_program), 0.0, 0.3)

    def test_requires_active_program(self, base_program):
        device = DeviceRuntime("d", drmt_switch("d"))
        with pytest.raises(ReconfigError, match="no active program"):
            device.begin_hitless_update(base_program, 0.0, 0.3)

    def test_no_overlapping_transitions(self, base_program):
        device = make_device(base_program)
        device.begin_hitless_update(self.new_version(base_program), 0.0, 0.3)
        with pytest.raises(ReconfigError, match="in flight"):
            device.begin_hitless_update(self.new_version(base_program), 0.1, 0.3)

    def test_sequential_transitions_allowed(self, base_program):
        device = make_device(base_program)
        v2 = self.new_version(base_program)
        device.begin_hitless_update(v2, 0.0, 0.3)
        v3 = v2.bump_version()
        device.begin_hitless_update(v3, 0.5, 0.3)  # prior window elapsed
        assert device.in_transition

    def test_old_before_window_new_after(self, base_program):
        device = make_device(base_program)
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 1.0, 0.4)

        before = make_packet(1, 2)
        device.process(before, 0.5)
        # before the window even started? window starts at 1.0 per args,
        # but _choose_instance only compares against end; packets in
        # [start, end) draw. Use a packet clearly after the end:
        after = make_packet(1, 2)
        device.process(after, 2.0)
        assert after.versions_seen["d"] == new_program.version

    def test_window_mixes_versions_consistently(self, base_program):
        device = make_device(base_program)
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 0.0, 1.0)
        versions = set()
        for index in range(200):
            packet = make_packet(1, 2)
            device.process(packet, index / 200.0)
            versions.add(packet.versions_seen["d"])
        assert versions == {base_program.version, new_program.version}

    def test_epoch_stamp_honoured(self, base_program):
        device = make_device(base_program)
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 0.0, 1.0)
        packet = make_packet(1, 2)
        packet.meta["_epoch"] = base_program.version
        device.process(packet, 0.99)  # late in window, would draw new
        assert packet.versions_seen["d"] == base_program.version

    def test_map_state_shared_across_versions(self, base_program):
        # ``probe`` changes its key shape between the versions, so only
        # ``flow_counts`` may be shared; the new ``probe`` starts empty.
        old_program, _ = apply_delta(base_program, parse_delta(ADD_PROBE))
        device = make_device(old_program)
        device.process(make_packet(7, 8), 0.0)
        old_probe = device.active_instance.maps.state("probe")
        old_probe.put((7,), 1)
        reshape = "delta reshape { remove map probe; add map probe { key: ipv4.src, ipv4.dst; value: u32; max_entries: 16; } }"
        new_program, _ = apply_delta(self.new_version(old_program), parse_delta(reshape))
        device.begin_hitless_update(new_program, 0.5, 0.3)
        packet = make_packet(7, 8)
        device.process(packet, 1.0)  # after window: new version
        instance = device.active_instance
        assert instance.program.version == new_program.version
        assert instance.maps.state("flow_counts").get((7, 8)) == 2
        assert instance.maps.state("probe") is not old_probe
        assert len(instance.maps.state("probe")) == 0
        assert old_probe.get((7,)) == 1

    def test_table_rules_shared_across_versions(self, base_program):
        from repro.lang.ir import ActionCall
        from repro.simulator.tables import Rule, exact

        device = make_device(base_program)
        device.active_instance.rules["l2"].insert(
            Rule(matches=(exact(1),), action=ActionCall("nop"))
        )
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 0.0, 0.1)
        device.process(make_packet(1, 2), 1.0)
        assert len(device.active_instance.rules["l2"]) == 1

    def test_flow_affine_draws_by_flow(self, base_program):
        device = make_device(base_program)
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 0.0, 1.0, flow_affine=True)
        seen = set()
        for _ in range(50):
            packet = make_packet(3, 4, src_port=999)  # same flow
            device.process(packet, 0.5)
            seen.add(packet.versions_seen["d"])
        assert len(seen) == 1  # whole flow cuts over together


class TestReflash:
    def test_reflash_causes_downtime(self, base_program):
        device = DeviceRuntime("d", rmt_switch("d", runtime_capable=False))
        device.install(base_program)
        until = device.begin_reflash(base_program.bump_version(), 10.0)
        assert until == pytest.approx(10.0 + 5.0 + 25.0 + 4.0)
        assert not device.available(11.0)
        assert device.available(until)

    def test_reflash_loses_state(self, base_program):
        device = DeviceRuntime("d", rmt_switch("d", runtime_capable=False))
        device.install(base_program)
        device.process(make_packet(5, 6), 0.0)
        assert device.active_instance.maps.state("flow_counts").get((5, 6)) == 1
        device.begin_reflash(base_program.bump_version(), 1.0)
        assert device.active_instance.maps.state("flow_counts").get((5, 6)) == 0

    def test_busy_until(self, base_program):
        device = make_device(base_program)
        assert device.busy_until(3.0) == 3.0
        device.begin_hitless_update(base_program.bump_version(), 3.0, 0.4)
        assert device.busy_until(3.0) == pytest.approx(3.4)
