"""Simulated nodes that run the *actual* protocol implementations.

Two families:

* :class:`RoundDrivenPeer` adapts any lockstep
  :class:`repro.net.player.Player` (the Pedersen DKG and reshare round
  machines) to asynchronous delivery.  The synchronous-rounds model the
  paper assumes is realized the way deployments realize it: **global
  round deadlines**.  Every peer processes round r's inbox at the same
  absolute virtual time, so honest peers agree on what "arrived in round
  r" means — the agreement precondition for the qualified set.  A peer
  that has received every expected deal message advances early (the
  common fast path); complaint and response rounds always wait for the
  deadline because their message counts are unknowable in advance.

* :class:`SignerPeer` / :class:`CombinerPeer` run the signing tier:
  the combiner ships each signer a real
  :class:`~repro.serialization.PartialSignJob` inside a v3 wire frame,
  the signer answers with a framed
  :class:`~repro.serialization.PartialSignOutcome`, and the combiner
  accumulates windows and drives
  :meth:`~repro.core.scheme.LJYThresholdScheme.combine_window` — the
  same bytes and the same entry points the TCP tier ships and calls,
  under simulated latency, bandwidth, loss, stragglers and forgers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.keys import PartialSignature
from repro.dkg.dealing import ROUND_COMPLAIN, ROUND_DEAL, ROUND_RESPOND
from repro.net.player import Player
from repro.net.simulator import Message
from repro.serialization import (
    FRAME_HEADER_BYTES, FRAME_KIND_JOB, FRAME_KIND_OUTCOME, PartialSignJob,
    PartialSignOutcome, SerializationError, WireCodec, decode_frame_header,
    encode_frame,
)
from repro.sims.kernel import SimulationError
from repro.sims.net import SimMessage, SimNet, SimPeer

#: A combiner window that is not full closes this long after its first
#: request became ready.
WINDOW_TIMEOUT_US = 50_000


@dataclass(frozen=True)
class RoundSchedule:
    """Absolute virtual-time deadlines for the three DKG rounds.

    ``t_complain_us`` is when round-0 (deal) inboxes close and
    complaints go out; ``t_respond_us`` closes the complaint inboxes;
    ``t_finalize_us`` closes the response inboxes.  All peers share one
    schedule — that is what makes it a synchronous protocol.
    """

    t_complain_us: int
    t_respond_us: int
    t_finalize_us: int


class RoundDrivenPeer(SimPeer):
    """Drives one lockstep round-machine player over asynchronous links."""

    def __init__(self, peer_id, net: SimNet, player: Player,
                 schedule: RoundSchedule,
                 expected_deal_messages: Optional[int] = None,
                 on_finalize: Optional[Callable] = None,
                 peer_for_player: Optional[Callable] = None,
                 group_ids: Optional[Sequence] = None):
        super().__init__(peer_id, net)
        self.player = player
        self.schedule = schedule
        #: Early-advance threshold for the deal round (None disables —
        #: reshare peers have role-dependent expectations, and any lost
        #: message falls back to the deadline anyway).
        self.expected_deal = expected_deal_messages
        self.on_finalize = on_finalize
        #: Maps a protocol player index to its sim peer id (identity by
        #: default; the churn scenario runs reshare players on ids like
        #: ``("reshare", i)`` so they coexist with the signing tier).
        self.peer_for_player = peer_for_player or (lambda index: index)
        #: Peers this protocol instance broadcasts to (None = whole
        #: net).  Needed when the net also hosts unrelated peers.
        self.group_ids = list(group_ids) if group_ids is not None else None
        self.buffers: Dict[int, List[Message]] = {0: [], 1: [], 2: []}
        self.next_round = ROUND_DEAL
        self.deal_complete_us: Optional[int] = None
        self.saw_complaints = False
        self.finalized_at_us: Optional[int] = None
        self.result = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Run the deal round now and arm the global deadlines."""
        self._run_round(ROUND_DEAL, [])
        self.net.kernel.schedule_at(
            self.schedule.t_complain_us, self._deadline, ROUND_COMPLAIN)
        self.net.kernel.schedule_at(
            self.schedule.t_respond_us, self._deadline, ROUND_RESPOND)

    def _run_round(self, round_no: int, inbox: List[Message]) -> None:
        if round_no != self.next_round:
            raise SimulationError(
                f"peer {self.peer_id} ran round {round_no} out of order")
        self.next_round = round_no + 1
        self.player.record_round(inbox)
        for message in self.player.on_round(round_no, inbox):
            if message.sender != self.player.index:
                raise SimulationError(
                    f"player {self.player.index} forged sender "
                    f"{message.sender}")
            envelope = (round_no, message)
            if message.is_broadcast:
                # Broadcasts ride the paper's reliable broadcast channel
                # (Section 2.1): without it, lossy complaint/response
                # delivery would let honest peers disagree on the
                # qualified set.  Private shares stay lossy — a lost
                # share is exactly what the complaint round is for.
                if self.group_ids is None:
                    self.net.broadcast(self, message.kind, envelope,
                                       reliable=True)
                else:
                    size = self.net._size_of(envelope)
                    for peer_id in self.group_ids:
                        if peer_id != self.peer_id:
                            self.net.send(self, peer_id, message.kind,
                                          envelope, size_bytes=size,
                                          reliable=True)
                # The lockstep tier delivers broadcasts to the sender
                # too (see SyncNetwork._inbox_for); the round machines
                # rely on it — a complainer must count its own
                # complaint when judging the qualified set.
                self.buffers[round_no].append(message)
            else:
                self.send(self.peer_for_player(message.recipient),
                          message.kind, envelope)

    def _deadline(self, round_no: int) -> None:
        if round_no == ROUND_COMPLAIN:
            if self.next_round == ROUND_COMPLAIN:
                self._run_round(ROUND_COMPLAIN, self.buffers[ROUND_DEAL])
            return
        # Respond deadline: ingest complaints, publish responses.  When
        # this peer saw no complaints at all, no honest dealer owes a
        # response, so it finalizes without waiting out the respond
        # window — the paper's optimistic single-communication-round
        # case, surfaced as completion time.
        complaints = self.buffers[ROUND_COMPLAIN]
        self.saw_complaints = bool(complaints)
        self._run_round(ROUND_RESPOND, complaints)
        if self.saw_complaints:
            self.net.kernel.schedule_at(
                self.schedule.t_finalize_us, self._finalize)
        else:
            self._finalize()

    def _finalize(self) -> None:
        self.player.record_round(self.buffers[ROUND_RESPOND])
        self.result = self.player.finalize()
        self.finalized_at_us = self.net.kernel.now_us
        self.net.kernel.trace(f"finalize {self.peer_id}")
        if self.on_finalize is not None:
            self.on_finalize(self)

    # -- delivery -----------------------------------------------------------
    def receive(self, message: SimMessage) -> None:
        round_no, protocol_message = message.payload
        if self.peer_for_player(protocol_message.sender) != message.sender:
            raise SimulationError(
                f"envelope sender {message.sender} != protocol sender "
                f"{protocol_message.sender}")
        buffer = self.buffers.get(round_no)
        if buffer is None:
            return
        # A message for a round whose inbox already closed is late: it
        # missed its round, exactly as on a real deadline-driven WAN.
        if round_no < self.next_round - 1 or (
                round_no == ROUND_DEAL and self.next_round > ROUND_COMPLAIN):
            self.net.kernel.trace(
                f"late {self.peer_id}<-{message.sender} r{round_no}")
            return
        buffer.append(protocol_message)
        if (round_no == ROUND_DEAL and self.expected_deal is not None
                and len(buffer) == self.expected_deal):
            self.deal_complete_us = self.net.kernel.now_us
            if self.next_round == ROUND_COMPLAIN:
                self._run_round(ROUND_COMPLAIN, buffer)


# ---------------------------------------------------------------------------
# The signing tier
# ---------------------------------------------------------------------------

class SignerPeer(SimPeer):
    """Holds one private key share; answers framed PartialSignJobs."""

    def __init__(self, peer_id, net: SimNet, scheme, share,
                 codec: WireCodec, compute_delay_us: int = 0,
                 forge: bool = False):
        super().__init__(peer_id, net)
        self.scheme = scheme
        self.share = share
        self.codec = codec
        #: Straggler model: fixed extra signing latency.
        self.compute_delay_us = compute_delay_us
        #: Byzantine model: emit well-formed but invalid partials.
        self.forge = forge
        self.epoch = 0
        self.jobs_served = 0

    def install_share(self, share, epoch: int) -> None:
        """Swap in post-reshare key material (the epoch transition)."""
        self.share = share
        self.epoch = epoch

    def receive(self, message: SimMessage) -> None:
        kind, request_id, length = decode_frame_header(
            message.payload[:FRAME_HEADER_BYTES])
        if kind != FRAME_KIND_JOB:
            return
        job = self.codec.decode_job(message.payload[FRAME_HEADER_BYTES:])
        if not isinstance(job, PartialSignJob):
            return
        partial = self.scheme.share_sign(self.share, job.message)
        if self.forge:
            partial = PartialSignature(
                index=partial.index, z=partial.z * partial.z, r=partial.r)
        outcome = PartialSignOutcome(partials=(partial,))
        frame = encode_frame(FRAME_KIND_OUTCOME,
                             self.codec.encode_outcome(outcome),
                             request_id=request_id)
        self.jobs_served += 1
        epoch = self.epoch
        self.net.kernel.schedule(
            self.compute_delay_us, self.send, message.sender,
            f"outcome@{epoch}", frame, len(frame))


class _Request:
    __slots__ = ("message", "issued_us", "partials", "quorum_us",
                 "done_us", "signature", "retries", "queued")

    def __init__(self, message: bytes, issued_us: int):
        self.message = message
        self.issued_us = issued_us
        #: epoch -> {signer index -> PartialSignature}
        self.partials: Dict[int, Dict[int, PartialSignature]] = {}
        self.quorum_us: Optional[int] = None
        self.done_us: Optional[int] = None
        self.signature = None
        self.retries = 0
        self.queued = False


class CombinerPeer(SimPeer):
    """Fans sign requests out to every signer, accumulates windows and
    combines with the real batch entry points.

    Per-request flow: ship a framed job to all n signers (all of them —
    that is the robustness margin against loss and forgers), mark the
    request *ready* once t+1 distinct partials of one epoch arrived,
    flush ready requests ``window_size`` at a time (or on the window
    timeout) through ``combine_window``, and verify every produced
    signature.  A flagged position that could not recombine (stragglers
    still in flight) goes back to collecting and re-enters a later
    window.  Unanswered requests are retransmitted — loss recovery, as
    in any real RPC tier.
    """

    def __init__(self, peer_id, net: SimNet, scheme, public_key,
                 verification_keys, signer_ids: Sequence, codec: WireCodec,
                 window_size: int = 8,
                 retry_timeout_us: int = 2_000_000, max_retries: int = 5):
        super().__init__(peer_id, net)
        self.scheme = scheme
        self.public_key = public_key
        #: epoch -> VK mapping (reshare under load installs epoch 1).
        self.vks_by_epoch = {0: dict(verification_keys)}
        self.signer_ids = list(signer_ids)
        self.codec = codec
        self.window_size = window_size
        self.retry_timeout_us = retry_timeout_us
        #: Give up after this many retransmits so a request that can
        #: never complete (too many forgers) does not keep the kernel's
        #: heap alive forever.
        self.max_retries = max_retries
        self.requests: Dict[int, _Request] = {}
        self.ready: List[int] = []
        self._timer_armed = False
        self.windows_flushed = 0
        self.flagged_positions = 0
        self.rejected_blobs = 0
        self.verified = 0
        #: epoch -> signatures combined under that epoch's VKs (the
        #: churn scenario asserts both epochs produced signatures).
        self.signed_by_epoch: Dict[int, int] = {}

    # -- epochs -------------------------------------------------------------
    def install_epoch(self, epoch: int, verification_keys) -> None:
        self.vks_by_epoch[epoch] = dict(verification_keys)

    # -- issuing ------------------------------------------------------------
    def submit(self, request_id: int, message: bytes) -> None:
        request = _Request(message, self.net.kernel.now_us)
        self.requests[request_id] = request
        self._ship(request_id, request)
        self.net.kernel.schedule(self.retry_timeout_us, self._retry,
                                 request_id)

    def _ship(self, request_id: int, request: _Request) -> None:
        for signer_id in self.signer_ids:
            job = PartialSignJob(shard_id=0, message=request.message,
                                 signers=(signer_id,), epoch=0)
            frame = encode_frame(FRAME_KIND_JOB,
                                 self.codec.encode_job(job),
                                 request_id=request_id)
            self.send(signer_id, "job", frame, len(frame))

    def _retry(self, request_id: int) -> None:
        request = self.requests[request_id]
        if request.done_us is not None or request.retries >= self.max_retries:
            return
        request.retries += 1
        self.net.kernel.trace(f"retry req{request_id}")
        self._ship(request_id, request)
        self.net.kernel.schedule(self.retry_timeout_us, self._retry,
                                 request_id)

    # -- collection ---------------------------------------------------------
    def receive(self, message: SimMessage) -> None:
        frame = message.payload
        try:
            kind, request_id, _ = decode_frame_header(
                frame[:FRAME_HEADER_BYTES])
            if kind != FRAME_KIND_OUTCOME:
                return
            outcome = self.codec.decode_outcome(
                frame[FRAME_HEADER_BYTES:])
        except SerializationError:
            self.rejected_blobs += 1
            return
        if not isinstance(outcome, PartialSignOutcome):
            return
        request = self.requests.get(request_id)
        if request is None or request.done_us is not None:
            return
        epoch = int(message.kind.rsplit("@", 1)[1]) if "@" in message.kind \
            else 0
        bucket = request.partials.setdefault(epoch, {})
        for partial in outcome.partials:
            bucket.setdefault(partial.index, partial)
        if epoch not in self.vks_by_epoch:
            # Partials from an epoch whose VKs have not been installed
            # yet are held but cannot drive readiness.
            return
        needed = self.scheme.params.t + 1
        if request.quorum_us is None and len(bucket) >= needed:
            request.quorum_us = self.net.kernel.now_us
            self.net.kernel.trace(f"quorum req{request_id}")
        if len(bucket) >= needed and not request.queued:
            request.queued = True
            self.ready.append(request_id)
            self._maybe_flush()

    # -- windows ------------------------------------------------------------
    def _maybe_flush(self) -> None:
        if len(self.ready) >= self.window_size:
            self._flush()
        elif self.ready and not self._timer_armed:
            self._timer_armed = True
            self.net.kernel.schedule(WINDOW_TIMEOUT_US, self._timer_fire)

    def _timer_fire(self) -> None:
        self._timer_armed = False
        if self.ready:
            self._flush()

    def _best_epoch(self, request: _Request) -> int:
        needed = self.scheme.params.t + 1
        candidates = [
            epoch for epoch, bucket in request.partials.items()
            if len(bucket) >= needed and epoch in self.vks_by_epoch
        ]
        return max(candidates)

    def _flush(self) -> None:
        batch = self.ready[:self.window_size]
        del self.ready[:len(batch)]
        self.windows_flushed += 1
        by_epoch: Dict[int, List[int]] = {}
        for request_id in batch:
            request = self.requests[request_id]
            request.queued = False
            by_epoch.setdefault(self._best_epoch(request), []).append(
                request_id)
        for epoch, request_ids in sorted(by_epoch.items()):
            windows = [
                (self.requests[rid].message,
                 list(self.requests[rid].partials[epoch].values()))
                for rid in request_ids
            ]
            signatures, flagged = self.scheme.combine_window(
                self.public_key, self.vks_by_epoch[epoch], windows)
            self.flagged_positions += len(flagged)
            for rid, signature in zip(request_ids, signatures):
                request = self.requests[rid]
                if signature is not None and self.scheme.verify(
                        self.public_key, request.message, signature):
                    self.verified += 1
                    self.signed_by_epoch[epoch] = (
                        self.signed_by_epoch.get(epoch, 0) + 1)
                    request.signature = signature
                    request.done_us = self.net.kernel.now_us
                    self.net.kernel.trace(f"signed req{rid}")
                # else: not enough valid shares yet — the request stays
                # in collecting state and re-queues on the next partial
                # (stragglers and retransmits are still in flight).
        # Leftover ready requests (arrivals during the flush, or more
        # than one window's worth) must not strand without a timer.
        self._maybe_flush()

    # -- results ------------------------------------------------------------
    def completed(self) -> List[int]:
        return [rid for rid, request in self.requests.items()
                if request.done_us is not None]

    def latencies_ms(self) -> Dict[str, List[float]]:
        quorum = [
            (request.quorum_us - request.issued_us) / 1000.0
            for request in self.requests.values()
            if request.quorum_us is not None
        ]
        done = [
            (request.done_us - request.issued_us) / 1000.0
            for request in self.requests.values()
            if request.done_us is not None
        ]
        return {"quorum_ms": quorum, "signed_ms": done}
