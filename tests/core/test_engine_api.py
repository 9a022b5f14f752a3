"""The execution-engine verb: ``net.engine(fastpath=...)`` is the one
way to switch a fleet between compiled and interpreted execution, and a
device runs every packet through one execution call."""

import json
import warnings

import pytest

from repro.apps import base_infrastructure
from repro.core.flexnet import EngineStatus, FlexNet
from repro.scale import e20_net, e20_workload, reference_run
from repro.simulator import batch, fastpath
from repro.simulator.packet import reset_packet_ids


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
        assert not status.fastpath
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
        with pytest.raises(ValueError, match=r"ProgramInstance\.process_batch"):
            net.engine(batch=True)
        assert not net.engine().fastpath  # nothing was configured

    def test_engine_config_survives_traffic(self):
        net = make_net()
        net.engine(fastpath=True)
        report = net.run_traffic(rate_pps=500, duration_s=0.2, extra_time_s=1.0)
        assert report.metrics.delivered > 0
        assert net.engine().fastpath


class TestOneRoutePerDevice:
    def _fabric_run(self, compiled: bool) -> str:
        reset_packet_ids()
        net = e20_net()
        net.engine(fastpath=compiled)
        workload = e20_workload(300, rate_pps=20000.0, seed=2024)
        report = reference_run(net, workload, drain_s=0.5)
        return json.dumps(report.to_dict(), sort_keys=True)

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
        assert json.loads(compiled)["metrics"]["delivered"] > 0
        assert calls["compiled"] > 0
        assert calls["flow_cache"] == 0 and calls["batch"] == 0


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
