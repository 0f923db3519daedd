"""The run-hook event contract: one event stream for every hook."""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import _execute_run, run_single
from repro.net.packet import reset_uids
from repro.sim.hooks import RunHook
from repro.sim.trace import TraceRecorder, trace_digest


class Recorder(RunHook):
    def __init__(self):
        self.events = []

    def on_attach(self, sim, cfg):
        self.events.append("attach")

    def on_phase_begin(self, name, sim, net, **meta):
        self.events.append(f"begin:{name}")

    def on_phase_end(self, name, sim, net):
        self.events.append(f"end:{name}")

    def on_bind(self, net, agents, cfg, receivers, members):
        self.events.append("bind")

    def on_finish(self):
        self.events.append("finish")


@pytest.mark.parametrize("hello", [False, True], ids=["bootstrap", "hello"])
def test_events_arrive_in_run_order_without_perturbing_it(hello):
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=8, seed=5,
                           hello_phase=hello, hello_warmup=1.5)
    reset_uids()
    plain = TraceRecorder()
    expected = run_single(cfg, trace=plain, cache=False, warm_start=False)
    reset_uids()
    hooked = TraceRecorder()
    rec = Recorder()
    assert _execute_run(cfg, trace=hooked, hooks=[rec]) == expected
    assert trace_digest(hooked) == trace_digest(plain)
    warmup = ["begin:hello-warmup", "end:hello-warmup"] if hello else []
    assert rec.events == [
        "attach", "begin:prefix-build", "end:prefix-build", *warmup, "bind",
        "begin:route-discovery", "end:route-discovery",
        "begin:data-delivery", "end:data-delivery", "finish",
    ]
