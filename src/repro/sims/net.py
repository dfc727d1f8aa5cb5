"""The simulated network: peers, messages, delivery.

:class:`SimNet` glues the event kernel to the link model.  ``send``
takes the **sending peer object**, not a claimed sender id, so a peer
cannot forge another's identity — the authenticated-channels assumption
of the paper's Section 2.1, enforced the same way
:class:`repro.net.simulator.SyncNetwork` enforces it for the lockstep
tier.  Broadcast is n-1 unicasts through the sender's uplink (there is
no broadcast medium on a WAN).

Byte accounting reuses the repo's existing meters: payloads that are
``bytes`` (the :class:`repro.serialization.WireCodec` frames the signing
peers exchange) count their exact length; structured protocol payloads
(DKG dealings) go through :func:`repro.net.metrics.estimate_size`, the
same estimator the lockstep simulator and the service telemetry use, so
simulated tables and loopback tables report comparable bytes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.metrics import TrafficCounter, estimate_size
from repro.sims.kernel import EventKernel, SimulationError
from repro.sims.links import LinkModel


class SimMessage:
    """One in-flight message (sender/recipient are peer ids)."""

    __slots__ = ("sender", "recipient", "kind", "payload", "size_bytes")

    def __init__(self, sender, recipient, kind: str, payload,
                 size_bytes: int):
        self.sender = sender
        self.recipient = recipient
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes


class SimPeer:
    """Base class for simulated nodes; subclasses implement
    :meth:`receive`."""

    def __init__(self, peer_id, net: "SimNet"):
        self.peer_id = peer_id
        self.net = net
        net.add_peer(self)

    def receive(self, message: SimMessage) -> None:
        raise NotImplementedError

    # Convenience wrapper that stamps this peer as the sender.
    def send(self, recipient, kind: str, payload,
             size_bytes: Optional[int] = None) -> None:
        self.net.send(self, recipient, kind, payload, size_bytes)


class SimNet:
    """Delivers messages between peers via the kernel + link model."""

    def __init__(self, kernel: EventKernel, links: LinkModel):
        self.kernel = kernel
        self.links = links
        self.peers: Dict[object, SimPeer] = {}
        self.traffic = TrafficCounter()
        self.drops = 0

    def add_peer(self, peer: SimPeer) -> None:
        if peer.peer_id in self.peers:
            raise SimulationError(f"duplicate peer id {peer.peer_id!r}")
        self.peers[peer.peer_id] = peer

    # -- sending ------------------------------------------------------------
    def _size_of(self, payload) -> int:
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        return estimate_size(payload)

    def send(self, sender: SimPeer, recipient, kind: str, payload,
             size_bytes: Optional[int] = None,
             reliable: bool = False) -> None:
        """Ship one message; the sender is the peer object itself, so
        sender identity cannot be forged.  ``reliable`` messages cannot
        be lost (the paper's broadcast-channel assumption) but still
        pay bandwidth and latency."""
        if self.peers.get(sender.peer_id) is not sender:
            raise SimulationError(
                f"unregistered sender {sender.peer_id!r}")
        if recipient not in self.peers:
            raise SimulationError(f"no peer {recipient!r}")
        size = self._size_of(payload) if size_bytes is None else size_bytes
        self.traffic.messages += 1
        self.traffic.bytes_total += size
        deliver_at = self.links.transfer(
            self.kernel.now_us, sender.peer_id, recipient, size,
            lossless=reliable)
        if deliver_at is None:
            self.drops += 1
            self.kernel.trace(
                f"drop {sender.peer_id}->{recipient} {kind} {size}B")
            return
        message = SimMessage(sender.peer_id, recipient, kind, payload, size)
        self.kernel.schedule_at(deliver_at, self._deliver, message)

    def broadcast(self, sender: SimPeer, kind: str, payload,
                  size_bytes: Optional[int] = None,
                  reliable: bool = False) -> None:
        """n-1 unicasts; the payload size is computed once and every
        copy pays its own uplink serialization slot."""
        size = self._size_of(payload) if size_bytes is None else size_bytes
        for peer_id in self.peers:
            if peer_id != sender.peer_id:
                self.send(sender, peer_id, kind, payload, size_bytes=size,
                          reliable=reliable)

    def _deliver(self, message: SimMessage) -> None:
        self.kernel.trace(
            f"recv {message.recipient}<-{message.sender} "
            f"{message.kind} {message.size_bytes}B")
        self.peers[message.recipient].receive(message)
