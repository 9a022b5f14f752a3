"""The execution-engine verb: ``net.engine(fastpath=...)`` is the one
way to switch a fleet between compiled and interpreted execution, and a
device runs every packet through one execution call. Compiled is the
default; ``engine(fastpath=False)`` is the interpreter oracle's route."""

import json
import warnings

import pytest

from repro.apps import base_infrastructure
from repro.core.flexnet import EngineStatus, FlexNet
from repro.scale import e20_net, e20_workload, reference_run
from repro.simulator import batch, fastpath, pipeline_exec
from repro.simulator.flowgen import constant_rate, merge_streams
from repro.simulator.packet import reset_packet_ids
from tests.integration.test_tenant_lifecycle import spec, tenant_extension


def make_net():
    net = FlexNet.standard()
    net.install(base_infrastructure())
    return net


class TestEngineVerb:
    def test_bare_call_is_a_pure_status_read(self):
        net = make_net()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = net.engine()
        assert isinstance(status, EngineStatus)
        assert status.devices > 0
        assert status.fastpath and status.fastpath_devices == status.devices
        # Reading did not configure anything.
        assert net.engine().to_dict() == status.to_dict()

    def test_fastpath_on_then_off(self):
        net = make_net()
        on = net.engine(fastpath=True)
        assert on.fastpath and on.fastpath_devices == on.devices
        off = net.engine(fastpath=False)
        assert not off.fastpath and off.fastpath_devices == 0

    def test_interpreter_spelling_with_batch_false_still_works(self):
        net = make_net()
        net.engine(fastpath=True)
        status = net.engine(fastpath=False, batch=False)
        assert not status.fastpath and status.fastpath_devices == 0
        assert net.engine(batch=None).to_dict() == status.to_dict()

    def test_batch_true_raises_and_names_process_batch(self):
        net = make_net()
        net.engine(fastpath=False)
        with pytest.raises(ValueError, match=r"ProgramInstance\.process_batch"):
            net.engine(fastpath=True, batch=True)
        assert not net.engine().fastpath  # nothing was configured

    def test_engine_config_survives_traffic(self):
        net = make_net()
        net.engine(fastpath=True)
        report = net.run_traffic(rate_pps=500, duration_s=0.2, extra_time_s=1.0)
        assert report.metrics.delivered > 0
        assert net.engine().fastpath


def fleet_state(net) -> dict:
    """Every device's counters and live map contents."""
    state = {}
    for name, device in sorted(net.controller.devices.items()):
        instance = device.active_instance
        maps = instance.maps.snapshot_all() if instance is not None else []
        state[name] = {
            "processed": device.stats.processed,
            "total_ops": device.stats.total_ops,
            "dropped_by_program": device.stats.dropped_by_program,
            "per_version": sorted(device.stats.per_version.items()),
            "maps": sorted((snap.map_name, sorted(snap.entries)) for snap in maps),
        }
    return state


class TestOneRoutePerDevice:
    def _fabric_run(self, compiled: bool) -> str:
        """A fresh E20 fabric run on the default engine, or with
        ``engine(fastpath=False)``: the report and every device's state."""
        reset_packet_ids()
        net = e20_net()
        if not compiled:
            net.engine(fastpath=False)
        workload = e20_workload(300, rate_pps=20000.0, seed=2024)
        report = reference_run(net, workload, drain_s=0.5)
        return json.dumps([report.to_dict(), fleet_state(net)], sort_keys=True)

    def test_compiled_fabric_run_is_byte_identical_and_skips_cache_and_batch(
        self, monkeypatch
    ):
        calls = {"compiled": 0, "flow_cache": 0, "batch": 0}
        compiled_process = fastpath.CompiledProgram.process
        cache_process = fastpath.FlowCache.process
        batch_execute = batch.BatchExecutor.execute

        def counting_compiled(self, *args, **kwargs):
            calls["compiled"] += 1
            return compiled_process(self, *args, **kwargs)

        def counting_cache(self, *args, **kwargs):
            calls["flow_cache"] += 1
            return cache_process(self, *args, **kwargs)

        def counting_batch(self, *args, **kwargs):
            calls["batch"] += 1
            return batch_execute(self, *args, **kwargs)

        monkeypatch.setattr(fastpath.CompiledProgram, "process", counting_compiled)
        monkeypatch.setattr(fastpath.FlowCache, "process", counting_cache)
        monkeypatch.setattr(batch.BatchExecutor, "execute", counting_batch)

        interpreted = self._fabric_run(compiled=False)
        assert calls["compiled"] == 0
        compiled = self._fabric_run(compiled=True)
        assert compiled == interpreted
        assert json.loads(compiled)[0]["metrics"]["delivered"] > 0
        assert calls["compiled"] > 0
        assert calls["flow_cache"] == 0 and calls["batch"] == 0


class TestCompiledByDefault:
    def _tenant_run(self, interpret: bool) -> str:
        reset_packet_ids()
        net = make_net()
        if interpret:
            net.engine(fastpath=False)
        net.schedule(0.5, lambda: net.admit_tenant(spec("t1", 100), tenant_extension()))
        packets = merge_streams(
            constant_rate(300, 1.5, vlan_id=100, src_ip=0x01010101),
            constant_rate(300, 1.5, src_ip=0x02020202),
        )
        report = net.run_traffic(packets=packets, extra_time_s=1.0)
        assert net.engine().fastpath is not interpret
        return json.dumps([report.to_dict(), fleet_state(net)], sort_keys=True)

    def test_mid_run_tenant_admission_matches_the_interpreter(self):
        compiled = self._tenant_run(interpret=False)
        assert compiled == self._tenant_run(interpret=True)
        devices = json.loads(compiled)[1]
        # The admitted tenant's program ran and counted packets.
        assert any(
            name == "t1__hits" and entries
            for device in devices.values()
            for name, entries in device["maps"]
        )

    def test_full_sampling_interprets_every_visit(self, monkeypatch):
        calls = {"interpreted": 0, "compiled": 0}
        interpreter_run = pipeline_exec._Interpreter.run
        compiled_process = fastpath.CompiledProgram.process

        def counting_interpreter(self, *args, **kwargs):
            calls["interpreted"] += 1
            return interpreter_run(self, *args, **kwargs)

        def counting_compiled(self, *args, **kwargs):
            calls["compiled"] += 1
            return compiled_process(self, *args, **kwargs)

        monkeypatch.setattr(pipeline_exec._Interpreter, "run", counting_interpreter)
        monkeypatch.setattr(fastpath.CompiledProgram, "process", counting_compiled)
        net = make_net()
        net.observe.enable(sample_every=1)
        assert net.engine().fastpath
        net.run_traffic(rate_pps=500, duration_s=0.2, extra_time_s=1.0)
        visits = sum(device.stats.processed for device in net.controller.devices.values())
        assert visits > 0
        assert calls == {"interpreted": visits, "compiled": 0}


class TestEngineStatusReportable:
    def test_summary_full_fleet(self):
        status = EngineStatus(devices=3, fastpath_devices=3)
        assert status.summary() == "engine [3 device(s)]: fastpath on"

    def test_summary_partial_fleet_shows_counts(self):
        status = EngineStatus(devices=2, fastpath_devices=1)
        assert not status.fastpath  # partial is not "on"
        assert "fastpath on (1/2 device(s))" in status.summary()

    def test_to_dict_shape(self):
        data = EngineStatus(devices=1, fastpath_devices=1).to_dict()
        assert data == {"devices": 1, "fastpath": True, "fastpath_devices": 1}
