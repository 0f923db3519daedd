"""Self-healing route maintenance: policy, state machine, bookkeeping.

The paper's recovery story (Sec. IV-D) is all-or-nothing — a receiver that
stops hearing data floods a RouteError and the source rebuilds the entire
forwarding mesh with a fresh JoinQuery round.  Under sustained fault churn
every link break therefore costs a network-wide flood.  This module holds
the pieces of the cheaper, layered alternative implemented by
:class:`~repro.protocols.base.OnDemandMulticastAgent` when a
:class:`RepairPolicy` is installed:

1. **local repair** — the orphaned downstream node first tries to *graft*
   onto an alternate live forwarder via a TTL-scoped RepairQuery (the
   MAODV-style patch, generalised to the whole ODMRP family);
2. **disciplined escalation** — graft attempts and source rebuilds are
   bounded retries with exponential backoff + deterministic jitter, and a
   per-session RouteError budget suppresses flood storms;
3. **graceful degradation** — once every budget is exhausted the session
   enters an explicit DEGRADED state and the source delivers via
   TTL-bounded scoped flooding until a later rebuild round succeeds.

Everything is opt-in: agents default to ``repair_policy = None`` and in
that configuration draw no extra rng values, schedule no events and emit
no trace records — flag-off runs stay byte-identical to the seed digests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any, Dict

__all__ = ["RepairPolicy", "RouteState", "RepairSession"]


class RouteState(str, Enum):
    """Per-(source, group) health of a multicast session at one node.

    ``HEALTHY -> REPAIRING -> DEGRADED -> HEALTHY`` — REPAIRING covers both
    an in-flight graft attempt (receiver side) and an in-flight bounded
    rebuild (source side); DEGRADED is entered only after the respective
    retry budget is exhausted and left only by a successful rebuild round.
    """

    HEALTHY = "healthy"
    REPAIRING = "repairing"
    DEGRADED = "degraded"


@dataclass(frozen=True)
class RepairPolicy:
    """Tuning knobs for the self-healing layer (all times in seconds).

    Installing an instance on an agent (``agent.repair_policy = policy``)
    switches the whole layer on; ``None`` (the default) keeps the paper's
    plain RouteError-flood recovery with bit-identical traces.
    """

    #: TTL of the scoped RepairQuery flood (1 = direct neighbors only)
    repair_ttl: int = 2
    #: graft attempts per repair episode before falling back to RouteError
    max_graft_attempts: int = 2
    #: base wait for a RepairReply before retrying the graft
    graft_timeout: float = 0.06
    #: base wait for the rebuilt tree to re-connect us before retrying
    rebuild_timeout: float = 0.30
    #: source-side rebuild rounds per episode before degrading
    max_rebuild_attempts: int = 3
    #: exponential backoff multiplier applied per retry
    backoff_factor: float = 2.0
    #: uniform jitter added on top of each backoff interval
    backoff_jitter: float = 0.02
    #: RouteError floods a receiver may trigger per repair episode
    route_error_budget: int = 2
    #: TTL of the scoped data flood used while a session is DEGRADED
    degraded_ttl: int = 4

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RepairPolicy":
        return cls(**doc)


@dataclass(slots=True)
class RepairSession:
    """Mutable repair bookkeeping for one (source, group) at one node."""

    state: RouteState = RouteState.HEALTHY
    #: a graft or rebuild episode is currently in flight
    active: bool = False
    #: bumped to invalidate stale timeout callbacks (no sim.cancel needed)
    token: int = 0
    #: route round the current episode belongs to
    seq: int = -1
    #: the dead forwarder that triggered the current episode
    failed_node: int = -1
    #: completed repair episodes (for reporting)
    episodes: int = 0
    #: graft attempts within the current episode
    graft_attempt: int = 0
    grafts_ok: int = 0
    grafts_failed: int = 0
    #: RouteError floods triggered within the current episode
    route_errors: int = 0
    #: source-side rebuild rounds within the current episode
    rebuild_attempts: int = 0
    #: sim-time of the last state change (time-in-state accounting)
    since: float = 0.0
    #: cumulative seconds spent per state value
    time_in: Dict[str, float] = field(default_factory=dict)
