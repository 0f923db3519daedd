"""Hot objects keep CPython's inline attribute values.

On CPython 3.11 and 3.12 an instance stores its attributes in an inline
value array shared-keyed with its class, which the interpreter's
specialised attribute loads read directly.  Asking for the instance's
``__dict__`` (``vars()``, ``cached_property``, pickle's default BUILD) or
giving its class a 30th attribute name moves them into a real dict, and
every later access on that object takes the slower generic path.  This
guard builds a run each way a run can be built — cold, as a warm fork
and as a batch reconstruction — and checks no hot object carries a
materialised dict.  It looks without creating one: a materialised dict
is the one ``dict`` among the object's GC referents holding its
attributes (inline values are referents one by one).
"""

import gc
import sys

import pytest

from repro.experiments.config import SimulationConfig, make_agent_factory
from repro.sim.snapshot import WarmSnapshot, build_prefix

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] not in ((3, 11), (3, 12)),
    reason="inline attribute values as CPython 3.11/3.12 lay them out",
)

_MISSING = object()


def _has_dict(obj) -> bool:
    for ref in gc.get_referents(obj):
        if type(ref) is dict and ref and all(
            type(k) is str and getattr(obj, k, _MISSING) is v for k, v in ref.items()
        ):
            return True
    return False


def _hot_objects(sim, net):
    """Simulator, queue, recorder, rng registry, network, channel, and
    every node with its MAC, neighbor table, energy account and agents."""
    yield from (sim, sim._queue, sim.trace, sim.rng, net, net.channel)
    for node in net.nodes:
        yield from (node, node.mac, node.neighbor_table, node.energy)
        yield from node._agents


def _materialised(sim, net) -> dict:
    out: dict = {}
    for obj in _hot_objects(sim, net):
        if _has_dict(obj):
            name = type(obj).__name__
            out[name] = out.get(name, 0) + 1
    return out


def _run_protocol(prefix, cfg, seconds: float = 0.3):
    """Install and start the protocol agents, and flood one query."""
    agents = prefix.net.install(make_agent_factory(cfg))
    for agent in agents:
        agent.start()
    agents[cfg.source].request_route(cfg.group)
    prefix.sim.run(until=prefix.sim.now + seconds)


CSMA = SimulationConfig(
    group_size=10, mac="csma", hello_phase=True, hello_warmup=3.0, seed=4,
)


@pytest.mark.parametrize("protocol", ["mtmrp", "mtmrp_nophs", "odmrp", "dodmrp"])
def test_cold_build_keeps_inline_values(protocol):
    cfg = CSMA.with_(protocol=protocol)
    prefix = build_prefix(cfg)
    _run_protocol(prefix, cfg)
    assert _materialised(prefix.sim, prefix.net) == {}
    prefix.net.close()


def test_warm_fork_keeps_inline_values():
    cfg = CSMA.with_(protocol="mtmrp_nophs")
    fork = WarmSnapshot.capture(cfg).fork()
    assert _materialised(fork.sim, fork.net) == {}
    _run_protocol(fork, cfg)
    assert _materialised(fork.sim, fork.net) == {}
    fork.net.close()


def test_batch_reconstruction_keeps_inline_values():
    import repro.sim.batch as batch_mod
    from repro.sim.rng import BatchedStreams
    from repro.sim.snapshot import default_trace_kinds
    from repro.sim.trace import TraceRecorder

    cfg = CSMA.with_(mac="ideal", protocol="mtmrp")
    streams = BatchedStreams([cfg.seed])
    plan = batch_mod._HelloPlan(cfg, streams)
    recorder = TraceRecorder(enabled_kinds=default_trace_kinds(cfg))
    prefix = batch_mod._reconstruct_prefix(cfg, streams.registry(0), recorder, plan, 0)
    prefix.net.channel.direct_finish = True
    _run_protocol(prefix, cfg, seconds=1.0)
    assert _materialised(prefix.sim, prefix.net) == {}
    prefix.net.close()
