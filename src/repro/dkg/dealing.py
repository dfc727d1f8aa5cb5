"""The dealing core: deal, complain, respond, qualify, combine.

Every key-lifecycle protocol of the paper runs the same three rounds of
verifiable secret sharing — Dist-Keygen (Section 3.1) and its DLIN
variant (Appendix F), where a key is born; refresh (Section 3.3) and
reshare, where it is raised; and the first phase of the GJKR baseline:

1. **Deal.**  Each dealer shares its secrets with degree-t polynomials,
   broadcasts the commitments and privately sends every receiver its
   share values.
2. **Complain.**  Each receiver checks its shares against the
   commitments (the paper's equation (1)) and broadcasts a complaint
   against every dealer whose dealing is missing, malformed, breaks a
   public rule or carries a wrong share.
3. **Respond.**  A dealer publishes the shares of every receiver that
   complained about it.

The qualified set Q holds the dealers whose commitments are well formed
and pass the public rules, that drew at most t complaints (t is the
receivers' threshold) and that answered every complaint with shares
that verify.  When everyone behaves, rounds 2 and 3 carry no messages:
the paper's one-round DKG.

:class:`DealingPlayer` runs those rounds once for every protocol.  A
protocol subclasses it, picks its dealers, receivers and VSS, and
overrides only what differs:

==================== =================================================
``secrets``          what each dealing shares: random, (0, 0), or the
                     dealer's own share
``constant_ok``      the public rule on the constant-term commitments:
                     none, the identity (refresh), ``VK_i`` (reshare)
``validate_extra``   Appendix G's rule on Dist-Keygen's "extra" field
``weigh``            which qualified dealers combine, with which weights:
                     1 over Q, or Lagrange at zero over sorted(Q)[:t+1]
==================== =================================================

Finalize weighs the chosen dealers' share values into this player's
share and their commitment columns into every receiver's verification
key; the public components are the weighted column 0.

Every inbound payload passes one validating parser.  A malformed one
counts as absent: its dealer is disqualified, its shares are missing
(so its dealer draws a complaint), or the complaint or response is
ignored.  One corrupt player can therefore never abort an honest one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.keys import PrivateKeyShare, VerificationKey
from repro.errors import ParameterError, ProtocolError
from repro.groups.api import BilinearGroup, GroupElement
from repro.net.adversary import Adversary
from repro.net.player import Player
from repro.net.simulator import Message, SyncNetwork, broadcast, private
from repro.sharing.pedersen_vss import PedersenVSS, index_powers
from repro.sharing.shamir import validate_threshold

#: Round layout.
ROUND_DEAL = 0
ROUND_COMPLAIN = 1
ROUND_RESPOND = 2
NUM_ROUNDS = 3


@dataclass
class DKGResult:
    """One player's view of the outcome."""

    index: int
    qualified: List[int]
    #: Per secret k: this player's combined share values, e.g.
    #: (A_k(i), B_k(i)); ``None`` for a player that only deals.
    share_pairs: Optional[List[Tuple[int, ...]]]
    #: Per secret k: the public key element g_hat_k.
    public_components: List[GroupElement]
    #: receiver j -> per-secret verification keys, from the transcript.
    verification_keys: Dict[int, List[GroupElement]]
    #: This player's own dealt secrets (a_ik0, b_ik0).
    additive_pairs: List[Tuple[int, ...]] = field(default_factory=list)
    #: Extra broadcast data per qualified dealer (used by Appendix G).
    extras: Dict[int, object] = field(default_factory=dict)
    #: The dealers combined: Q, or ``sorted(Q)[:t+1]`` for a reshare.
    dealer_set: List[int] = field(default_factory=list)


class PedersenPairs:
    """Pedersen VSS of (a, b) pairs under (g_z, g_r): the VSS of
    Dist-Keygen, refresh, reshare and GJKR."""

    #: Scalars per share and group elements per commitment.
    arity = 2
    lanes = 1

    def __init__(self, group: BilinearGroup, g_z: GroupElement,
                 g_r: GroupElement):
        self.group = group
        self.g_z = g_z
        self.g_r = g_r

    def deal(self, t: int, n: int, secret, rng) -> PedersenVSS:
        return PedersenVSS.deal(self.group, self.g_z, self.g_r, t, n,
                                secret_pair=secret, rng=rng)

    def verify(self, commitments, index: int, share) -> bool:
        return PedersenVSS.verify_share(
            self.group, self.g_z, self.g_r, commitments, index, share)

    def is_commitment(self, value) -> bool:
        return self.group.same_group(value, self.g_z)

    @staticmethod
    def lane(commitment, lane: int) -> GroupElement:
        return commitment

    @staticmethod
    def pack(values):
        return values[0]


class DealingPlayer(Player):
    """One participant of a dealing: dealer, receiver, or both."""

    #: Rounds a run of this protocol takes.
    num_rounds = NUM_ROUNDS

    def __init__(self, index: int, vss, t: int, num_secrets: int,
                 dealers: Sequence[int], receivers: Sequence[int],
                 rng=None):
        super().__init__(index)
        self.receivers = sorted(receivers)
        validate_threshold(t, len(self.receivers))
        if len(self.receivers) < 2 * t + 1:
            raise ParameterError("the paper requires n >= 2t + 1")
        self.dealers = sorted(dealers)
        self.vss = vss
        self.group = vss.group
        self.t = t
        self.num_secrets = num_secrets
        self.rng = rng
        self._dealer_ids = frozenset(self.dealers)
        self._receiver_ids = frozenset(self.receivers)
        # Erasure-free model: everything below stays in the object.
        self.dealings: list = []
        self.received_commitments: Dict[int, list] = {}
        self.received_shares: Dict[int, list] = {}
        self.received_extras: Dict[int, object] = {}
        self.complaints_against: Dict[int, set] = {}
        self.disqualified: set = set()
        self.qualified: Optional[List[int]] = None
        self._result = None
        self._column_cache: Dict[tuple, list] = {}

    # -- what a protocol overrides --------------------------------------------
    def secrets(self) -> list:
        """Per secret k, what this dealer shares (``None``: random)."""
        return [None] * self.num_secrets

    def dealing_payload(self, commitments) -> dict:
        """The commitments broadcast."""
        return {"commitments": commitments}

    def constant_ok(self, dealer: int, constants) -> bool:
        """The public rule on a dealing's constant-term commitments."""
        return True

    def validate_extra(self, dealer: int, commitments, extra) -> bool:
        """Extra disqualification rule, applied once to each dealing."""
        return True

    def weigh(self, qualified: List[int]):
        """``(dealers combined, their weights)``; ``None`` weighs 1."""
        return qualified, None

    # -- round machine --------------------------------------------------------
    def on_round(self, round_no: int,
                 inbox: Sequence[Message]) -> List[Message]:
        if round_no == ROUND_DEAL:
            return self._deal()
        if round_no == ROUND_COMPLAIN:
            self._ingest_dealings(inbox)
            return self._complain()
        if round_no == ROUND_RESPOND:
            self._ingest_complaints(inbox)
            return self._respond()
        return []

    def _deal(self) -> List[Message]:
        if self.index not in self._dealer_ids:
            return []
        self.dealings = [
            self.vss.deal(self.t, len(self.receivers), secret, self.rng)
            for secret in self.secrets()]
        payload = self.dealing_payload([d.commitments for d in self.dealings])
        outbound = [broadcast(self.index, "commitments", payload)]
        outbound += [
            private(self.index, j, "shares", self._shares_for(j))
            for j in self.receivers if j != self.index]
        # Deliver our own dealing to ourselves directly.
        self._take_dealing(self.index, payload)
        if self.index in self._receiver_ids:
            self.received_shares[self.index] = self._shares_for(self.index)
        return outbound

    def _shares_for(self, j: int) -> list:
        return [d.share_for(j) for d in self.dealings]

    def _ingest_dealings(self, inbox: Sequence[Message]) -> None:
        for message in inbox:
            if message.kind == "commitments":
                self._take_dealing(message.sender, message.payload)
            elif (message.kind == "shares"
                  and message.recipient == self.index
                  and message.sender in self._dealer_ids):
                shares = self._parse_shares(message.payload)
                if shares is not None:
                    self.received_shares[message.sender] = shares

    def _take_dealing(self, dealer: int, payload) -> None:
        if dealer not in self._dealer_ids:
            return
        commitments = self._parse_commitments(payload)
        extra = None if commitments is None else payload.get("extra")
        if (commitments is None
                or not self.constant_ok(dealer, [c[0] for c in commitments])
                or not self.validate_extra(dealer, commitments, extra)):
            self.disqualified.add(dealer)
            return
        self.received_commitments[dealer] = commitments
        if extra is not None:
            self.received_extras[dealer] = extra

    def _complain(self) -> List[Message]:
        if self.index not in self._receiver_ids:
            return []
        return [
            broadcast(self.index, "complaint", {"accused": dealer})
            for dealer in self.dealers
            if dealer != self.index and not self._dealing_ok(dealer)]

    def _dealing_ok(self, dealer: int) -> bool:
        commitments = self.received_commitments.get(dealer)
        shares = self.received_shares.get(dealer)
        return (commitments is not None and shares is not None
                and self._verifies(commitments, self.index, shares))

    def _verifies(self, commitments, index: int, shares) -> bool:
        return all(
            self.vss.verify(commitments[k], index, shares[k])
            for k in range(self.num_secrets))

    def _ingest_complaints(self, inbox: Sequence[Message]) -> None:
        for message in inbox:
            if (message.kind == "complaint"
                    and message.sender in self._receiver_ids):
                accused = self._int_field(message.payload, "accused")
                if accused is not None:
                    self.complaints_against.setdefault(accused, set()).add(
                        message.sender)

    def _respond(self) -> List[Message]:
        if not self.dealings:
            return []
        return [
            broadcast(self.index, "response", {
                "complainer": complainer,
                "shares": self._shares_for(complainer)})
            for complainer in sorted(
                self.complaints_against.get(self.index, ()))]

    # -- the validating parser ------------------------------------------------
    @staticmethod
    def _int_field(payload, key: str) -> Optional[int]:
        value = payload.get(key) if isinstance(payload, dict) else None
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        return None

    def _parse_scalars(self, value, arity: int) -> Optional[tuple]:
        """``arity`` ints, reduced modulo the group order, or ``None``."""
        if (not isinstance(value, (list, tuple)) or len(value) != arity
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           for x in value)):
            return None
        return tuple(x % self.group.order for x in value)

    def _parse_shares(self, value) -> Optional[list]:
        """One share tuple per secret, or ``None``."""
        if (not isinstance(value, (list, tuple))
                or len(value) != self.num_secrets):
            return None
        shares = [self._parse_scalars(s, self.vss.arity) for s in value]
        return None if None in shares else shares

    def _is_vector(self, value) -> bool:
        """True for t+1 commitments."""
        return (isinstance(value, (list, tuple)) and len(value) == self.t + 1
                and all(map(self.vss.is_commitment, value)))

    def _parse_commitments(self, payload):
        """One commitment vector per secret, or ``None``.  A valid payload
        is kept as sent: every receiver of a broadcast shares one copy."""
        value = payload.get("commitments") if isinstance(
            payload, dict) else None
        if (isinstance(value, (list, tuple))
                and len(value) == self.num_secrets
                and all(map(self._is_vector, value))):
            return value
        return None

    def _responses(self) -> Dict[int, Dict[int, list]]:
        """dealer -> complainer -> published shares."""
        responses: Dict[int, Dict[int, list]] = {}
        for round_messages in self.history:
            for message in round_messages:
                if (message.kind != "response"
                        or message.sender not in self._dealer_ids):
                    continue
                complainer = self._int_field(message.payload, "complainer")
                if complainer is None:
                    continue
                shares = self._parse_shares(message.payload.get("shares"))
                if shares is not None:
                    responses.setdefault(message.sender, {})[
                        complainer] = shares
        return responses

    # -- qualification and combine --------------------------------------------
    def _qualify(self) -> List[int]:
        """Q, computed once; adopts the shares published for us."""
        if self.qualified is not None:
            return self.qualified
        responses = self._responses()
        self.qualified = []
        for dealer in self.dealers:
            commitments = self.received_commitments.get(dealer)
            complainers = self.complaints_against.get(dealer, set())
            if (dealer in self.disqualified or commitments is None
                    or len(complainers) > self.t):
                continue
            published = responses.get(dealer, {})
            if all(c in published
                   and self._verifies(commitments, c, published[c])
                   for c in complainers):
                if self.index in complainers:
                    self.received_shares[dealer] = published[self.index]
                self.qualified.append(dealer)
        return self.qualified

    def finalize(self):
        if self._result is None:
            qualified = self._qualify()
            chosen, weights = self.weigh(qualified)
            if not chosen:
                raise ProtocolError("no dealer qualified")
            self._result = self._combine(qualified, chosen, weights)
        return self._result

    def _combine(self, qualified, chosen, weights) -> DKGResult:
        order = self.group.order
        scale = weights or dict.fromkeys(chosen, 1)
        share_pairs = None
        if self.index in self._receiver_ids:
            share_pairs = [
                tuple(sum(scale[i] * self.received_shares[i][k][c]
                          for i in chosen) % order
                      for c in range(self.vss.arity))
                for k in range(self.num_secrets)]
        columns = [self._columns(tuple(chosen), weights, k)
                   for k in range(self.num_secrets)]
        verification_keys = {}
        for j in self.receivers:
            powers = index_powers(order, j, self.t + 1)
            verification_keys[j] = [
                self.vss.pack([self.group.multi_exp(lane, powers)
                               for lane in lanes])
                for lanes in columns]
        return DKGResult(
            index=self.index,
            qualified=list(qualified),
            share_pairs=share_pairs,
            public_components=[
                self.vss.pack([lane[0] for lane in lanes])
                for lanes in columns],
            verification_keys=verification_keys,
            additive_pairs=[d.share_for(0) for d in self.dealings],
            extras={j: self.received_extras[j]
                    for j in qualified if j in self.received_extras},
            dealer_set=list(chosen),
        )

    def _columns(self, chosen: tuple, weights, k: int) -> list:
        """Per lane, ``[prod_{i in D} W_ikl^{w_i} for l in 0..t]``.

        VK_j's component k is ``prod_{i in D} prod_l W_ikl^{w_i j^l}``;
        the scalar factors, so the double product regroups around these
        column aggregates.  They do not depend on j and are cached per
        chosen set: every VK_j is then a (t+1)-term multi-exponentiation
        instead of a |D|(t+1)-term one, which is what makes deriving
        all n VK rows tractable at n >= 1024 (the F7 simulated DKG).
        Weight 1 folds plain products.
        """
        key = (chosen, k)
        if key not in self._column_cache:
            lanes = []
            for lane in range(self.vss.lanes):
                rows = [[self.vss.lane(c, lane)
                         for c in self.received_commitments[dealer][k]]
                        for dealer in chosen]
                if weights is None:
                    lanes.append([reduce(mul, column)
                                  for column in zip(*rows)])
                else:
                    scalars = [weights[dealer] for dealer in chosen]
                    lanes.append([self.group.multi_exp(list(column), scalars)
                                  for column in zip(*rows)])
            self._column_cache[key] = lanes
        return self._column_cache[key]


def run_dealing(players: Dict[int, DealingPlayer],
                adversary: Optional[Adversary] = None):
    """Run the players' rounds; returns ``(results, network)``.

    ``results`` maps each *honest* player index to its finalized output;
    the network carries the communication metrics.  Raises
    :class:`ProtocolError` when honest players disagree on Q.
    """
    network = SyncNetwork(players, adversary=adversary)
    results = network.run(next(iter(players.values())).num_rounds)
    if len({tuple(network.players[i].qualified) for i in results}) > 1:
        raise ProtocolError("honest players disagree on the qualified set")
    return results, network


def result_keys(result: DKGResult) -> Tuple[
        Optional[PrivateKeyShare], Dict[int, VerificationKey]]:
    """The Section 3 key types of a two-pair result: this player's share
    (``None`` for a dealer that leaves) and every receiver's VK."""
    if len(result.public_components) != 2:
        raise ParameterError("the Section 3 scheme shares two pairs")
    share = None
    if result.share_pairs is not None:
        (a_1, b_1), (a_2, b_2) = result.share_pairs
        share = PrivateKeyShare(result.index, a_1, b_1, a_2, b_2)
    verification_keys = {
        j: VerificationKey(index=j, v_1=v_1, v_2=v_2)
        for j, (v_1, v_2) in result.verification_keys.items()}
    return share, verification_keys
