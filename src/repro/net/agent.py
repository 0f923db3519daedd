"""The protocol-agent base class.

Lives in its own module so that both :mod:`repro.net.node` and protocol
modules can import it without cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Type

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.net.node import Node

__all__ = ["Agent"]


class Agent:
    """Base class for protocol logic living on a node.

    Subclasses set :attr:`handled_packets` to the packet classes they want
    and override :meth:`on_packet`.  ``attach`` wires the back-reference;
    ``start`` is called once the whole network is assembled — agents
    schedule their initial timers there.
    """

    #: packet classes this agent receives (empty = none)
    handled_packets: Tuple[Type[Packet], ...] = ()

    def __init__(self) -> None:
        self.node: Optional["Node"] = None
        # The convenience accessors sit on every hot protocol path, so
        # they are plain attributes, bound once by ``attach``.
        self.network: Optional["Network"] = None
        self.sim = None
        self.node_id: Optional[int] = None

    # -- wiring -------------------------------------------------------- #
    def attach(self, node: "Node") -> None:
        """Bind this agent to ``node`` (whose network must be set)."""
        self.node = node
        self.network = node.network
        self.sim = node.network.sim
        self.node_id = node.node_id

    def start(self) -> None:
        """Called once after the network is fully assembled."""

    def send(self, packet: Packet) -> None:
        """Broadcast ``packet`` through this node's MAC."""
        assert self.node is not None
        self.node.send(packet)

    # -- dispatch -------------------------------------------------------- #
    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError
