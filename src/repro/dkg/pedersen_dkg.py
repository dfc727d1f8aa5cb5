"""Pedersen's distributed key generation — the paper's Dist-Keygen.

Protocol (Section 3.1), for each player P_i and each component k:

1. **Deal.** P_i picks degree-t polynomials A_ik[X], B_ik[X], broadcasts
   the Pedersen commitments ``W_hat_ikl = g_z^{a_ikl} g_r^{b_ikl}`` and
   privately sends ``(A_ik(j), B_ik(j))`` to every P_j.
2. **Complain.** P_i checks every received share against equation (1) and
   broadcasts a complaint for each faulty dealer.
3. **Respond.** A dealer with more than t complaints is disqualified.  A
   dealer with 1..t complaints must broadcast the complained-about shares;
   if a published share fails equation (1) the dealer is disqualified.
4. **Finalize.** Q = non-disqualified players.  The public key components
   are ``g_hat_k = prod_{i in Q} W_hat_ik0``; player j's private share is
   the sum of the qualified dealers' shares; every VK_j is publicly
   computable from the broadcast commitments.

In the optimistic case rounds 2 and 3 carry no messages, so the protocol
uses **one communication round**, which is the paper's headline DKG claim.

The implementation is generic over the number of shared pairs
(``num_pairs = 2`` for the Section 3 scheme, ``1`` for Section 4) and can
share fixed constants (pairs of zeros) for proactive refresh.  A hook lets
the aggregation variant (Appendix G) broadcast its extra ``(Z_i0, R_i0)``
elements and apply its extra disqualification rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError, ProtocolError
from repro.groups.api import BilinearGroup, GroupElement
from repro.net.adversary import Adversary
from repro.net.player import Player
from repro.net.simulator import Message, SyncNetwork, broadcast, private
from repro.sharing.pedersen_vss import (
    PedersenVSS, commitment_eval, index_powers,
)
from repro.sharing.shamir import validate_threshold

#: Round layout.
ROUND_DEAL = 0
ROUND_COMPLAIN = 1
ROUND_RESPOND = 2
NUM_ROUNDS = 3


@dataclass
class DKGResult:
    """One player's view of the protocol outcome."""

    index: int
    qualified: List[int]
    #: Per component k: this player's summed share pair (A_k(i), B_k(i)).
    share_pairs: List[Tuple[int, int]]
    #: Per component k: the public key element g_hat_k.
    public_components: List[GroupElement]
    #: j -> per-component verification keys, derived from the transcript.
    verification_keys: Dict[int, List[GroupElement]]
    #: This player's own additive contribution pairs (a_ik0, b_ik0).
    additive_pairs: List[Tuple[int, int]]
    #: Extra broadcast data per qualified dealer (used by Appendix G).
    extras: Dict[int, object] = field(default_factory=dict)


class PedersenDKGPlayer(Player):
    """An honest Dist-Keygen participant."""

    def __init__(self, index: int, group: BilinearGroup,
                 g_z: GroupElement, g_r: GroupElement, t: int, n: int,
                 num_pairs: int = 2,
                 fixed_secrets: Optional[Sequence[Tuple[int, int]]] = None,
                 require_zero_constant: bool = False,
                 rng=None, indices: Optional[Sequence[int]] = None):
        super().__init__(index)
        validate_threshold(t, n)
        if n < 2 * t + 1:
            raise ParameterError("the paper requires n >= 2t + 1")
        self.group = group
        self.g_z = g_z
        self.g_r = g_r
        self.t = t
        self.n = n
        #: The players' indices: 1..n unless a committee was renumbered
        #: (a refresh after a reshare to, say, indices 2..6).
        self.indices = list(range(1, n + 1) if indices is None
                            else indices)
        self.num_pairs = num_pairs
        self.rng = rng
        self._fixed_secrets = fixed_secrets
        #: Proactive-refresh mode: dealings must share the pair (0, 0),
        #: publicly checkable as W_hat_ik0 == 1.
        self.require_zero_constant = require_zero_constant
        # Erasure-free model: everything below stays in the object.
        self.dealings: List[PedersenVSS] = []
        self.received_commitments: Dict[int, List[List[GroupElement]]] = {}
        self.received_shares: Dict[int, List[Tuple[int, int]]] = {}
        self.received_extras: Dict[int, object] = {}
        self.complaints_against: Dict[int, set] = {}
        self.my_complaints: List[int] = []
        self.disqualified: set = set()
        self._result: Optional[DKGResult] = None
        self._column_cache: Dict[tuple, List[GroupElement]] = {}

    # -- Appendix G hook -------------------------------------------------------
    def extra_broadcast_payload(self):
        """Extra data to broadcast with the dealing (None by default)."""
        return None

    def validate_extra(self, dealer: int, commitments, extra) -> bool:
        """Extra disqualification rule applied to each dealing."""
        return True

    # -- round machine ---------------------------------------------------------
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
        outbound: List[Message] = []
        for k in range(self.num_pairs):
            secret = (self._fixed_secrets[k]
                      if self._fixed_secrets is not None else None)
            dealing = PedersenVSS.deal(
                self.group, self.g_z, self.g_r, self.t, self.n,
                secret_pair=secret, rng=self.rng)
            self.dealings.append(dealing)
        outbound.append(broadcast(
            self.index, "commitments",
            {
                "commitments": [d.commitments for d in self.dealings],
                "extra": self.extra_broadcast_payload(),
            }))
        for j in self.indices:
            if j == self.index:
                continue
            outbound.append(private(
                self.index, j, "shares",
                [d.share_for(j) for d in self.dealings]))
        # Deliver our own shares to ourselves directly.
        self.received_commitments[self.index] = [
            d.commitments for d in self.dealings]
        self.received_shares[self.index] = [
            d.share_for(self.index) for d in self.dealings]
        extra = self.extra_broadcast_payload()
        if extra is not None:
            self.received_extras[self.index] = extra
        return outbound

    def _ingest_dealings(self, inbox: Sequence[Message]) -> None:
        for message in inbox:
            if message.kind == "commitments":
                payload = message.payload
                commitments = payload["commitments"]
                if (len(commitments) != self.num_pairs or any(
                        len(c) != self.t + 1 for c in commitments)):
                    self.disqualified.add(message.sender)
                    continue
                self.received_commitments[message.sender] = commitments
                if payload.get("extra") is not None:
                    self.received_extras[message.sender] = payload["extra"]
            elif message.kind == "shares" and message.recipient == self.index:
                shares = message.payload
                if len(shares) == self.num_pairs:
                    self.received_shares[message.sender] = [
                        (int(a), int(b)) for a, b in shares]

    def _complain(self) -> List[Message]:
        outbound: List[Message] = []
        for dealer in self.indices:
            if dealer == self.index:
                continue
            if not self._dealing_is_valid(dealer):
                self.my_complaints.append(dealer)
                outbound.append(broadcast(
                    self.index, "complaint", {"accused": dealer}))
        return outbound

    def _dealing_is_valid(self, dealer: int) -> bool:
        commitments = self.received_commitments.get(dealer)
        shares = self.received_shares.get(dealer)
        if commitments is None or shares is None:
            return False
        for k in range(self.num_pairs):
            if not PedersenVSS.verify_share(
                    self.group, self.g_z, self.g_r, commitments[k],
                    self.index, shares[k]):
                return False
            if not self.validate_extra(
                    dealer, commitments,
                    self.received_extras.get(dealer)):
                return False
        return True

    def _ingest_complaints(self, inbox: Sequence[Message]) -> None:
        for message in inbox:
            if message.kind != "complaint":
                continue
            accused = message.payload.get("accused")
            if not isinstance(accused, int):
                continue
            self.complaints_against.setdefault(accused, set()).add(
                message.sender)

    def _respond(self) -> List[Message]:
        complainers = self.complaints_against.get(self.index, set())
        if not complainers:
            return []
        outbound = []
        for complainer in sorted(complainers):
            outbound.append(broadcast(
                self.index, "response", {
                    "complainer": complainer,
                    "shares": [
                        d.share_for(complainer) for d in self.dealings],
                }))
        return outbound

    # -- finalization ------------------------------------------------------------
    def finalize(self) -> DKGResult:
        if self._result is not None:
            return self._result
        responses = self._collect_responses()
        qualified = self._qualified_set(responses)
        # Adopt response shares published for us during the respond round.
        for dealer, by_complainer in responses.items():
            ours = by_complainer.get(self.index)
            if ours is not None and dealer in qualified:
                self.received_shares[dealer] = ours
        share_pairs = []
        public_components = []
        for k in range(self.num_pairs):
            sum_a = sum(
                self.received_shares[j][k][0] for j in qualified
            ) % self.group.order
            sum_b = sum(
                self.received_shares[j][k][1] for j in qualified
            ) % self.group.order
            share_pairs.append((sum_a, sum_b))
            component = None
            for j in qualified:
                w0 = self.received_commitments[j][k][0]
                component = w0 if component is None else component * w0
            public_components.append(component)
        verification_keys = {
            j: [
                self._vk_component(qualified, k, j)
                for k in range(self.num_pairs)
            ]
            for j in self.indices
        }
        self._result = DKGResult(
            index=self.index,
            qualified=sorted(qualified),
            share_pairs=share_pairs,
            public_components=public_components,
            verification_keys=verification_keys,
            additive_pairs=[d.secret_pair for d in self.dealings],
            extras={
                j: self.received_extras[j]
                for j in qualified if j in self.received_extras
            },
        )
        return self._result

    def _collect_responses(self) -> Dict[int, Dict[int, list]]:
        """dealer -> complainer -> published shares (from round 3)."""
        responses: Dict[int, Dict[int, list]] = {}
        for round_messages in self.history:
            for message in round_messages:
                if message.kind != "response":
                    continue
                payload = message.payload
                complainer = payload.get("complainer")
                shares = payload.get("shares")
                if not isinstance(complainer, int) or shares is None:
                    continue
                if len(shares) != self.num_pairs:
                    continue
                responses.setdefault(message.sender, {})[complainer] = [
                    (int(a), int(b)) for a, b in shares]
        return responses

    def _qualified_set(self, responses) -> List[int]:
        qualified = []
        for dealer in self.indices:
            if dealer in self.disqualified:
                continue
            if dealer not in self.received_commitments:
                continue
            if self.require_zero_constant and any(
                    not commitments[0].is_identity()
                    for commitments in self.received_commitments[dealer]):
                # Refresh dealings must commit to (0, 0); this is a public
                # check so all honest players exclude such dealers alike.
                continue
            complainers = self.complaints_against.get(dealer, set())
            if len(complainers) > self.t:
                continue
            ok = True
            for complainer in complainers:
                published = responses.get(dealer, {}).get(complainer)
                if published is None:
                    ok = False
                    break
                for k in range(self.num_pairs):
                    if not PedersenVSS.verify_share(
                            self.group, self.g_z, self.g_r,
                            self.received_commitments[dealer][k],
                            complainer, published[k]):
                        ok = False
                        break
                if not ok:
                    break
            if ok and not self.validate_extra(
                    dealer, self.received_commitments[dealer],
                    self.received_extras.get(dealer)):
                ok = False
            if ok:
                qualified.append(dealer)
        return qualified

    def _vk_component(self, qualified, k: int, j: int) -> GroupElement:
        """``prod_{i in Q} prod_l W_hat_ikl^{j^l}`` — VK_j, component k.

        The same j^l scalar multiplies every dealer's l-th commitment, so
        the double product regroups as
        ``prod_l (prod_{i in Q} W_hat_ikl)^{j^l}``: the per-column
        aggregates ``U_kl`` are independent of j, get computed once per
        qualified set (cached), and each VK_j then costs a (t+1)-term
        multi-exponentiation instead of a |Q|*(t+1)-term one.  That |Q|-
        fold saving is what makes deriving all n VK rows tractable at
        n >= 1024 (the F7 simulated-DKG scenario).
        """
        if not qualified:
            return None
        powers = index_powers(self.group.order, j, self.t + 1)
        return self.group.multi_exp(
            self._commitment_columns(tuple(qualified), k), powers)

    def _commitment_columns(self, qualified: tuple,
                            k: int) -> List[GroupElement]:
        """``[prod_{i in Q} W_hat_ikl for l in 0..t]``, cached per Q."""
        cached = self._column_cache.get((qualified, k))
        if cached is not None:
            return cached
        columns: List[GroupElement] = []
        for position in range(self.t + 1):
            column = None
            for dealer in qualified:
                w = self.received_commitments[dealer][k][position]
                column = w if column is None else column * w
            columns.append(column)
        self._column_cache[(qualified, k)] = columns
        return columns


def run_pedersen_dkg(group: BilinearGroup, g_z: GroupElement,
                     g_r: GroupElement, t: int, n: int,
                     num_pairs: int = 2,
                     adversary: Optional[Adversary] = None,
                     fixed_secrets=None, require_zero_constant: bool = False,
                     rng=None, player_cls=PedersenDKGPlayer,
                     indices: Optional[Sequence[int]] = None):
    """Run the full Dist-Keygen; returns (results_by_player, network).

    ``results_by_player`` maps each *honest* player index to its
    :class:`DKGResult`.  The network object carries the communication
    metrics used by experiment T4.  The n players carry ``indices``
    (1..n by default), and shares and verification keys are dealt to
    exactly those.
    """
    indices = list(range(1, n + 1) if indices is None else indices)
    if len(indices) != n:
        raise ParameterError("need exactly n player indices")
    players = {
        i: player_cls(i, group, g_z, g_r, t, n, num_pairs=num_pairs,
                      fixed_secrets=fixed_secrets,
                      require_zero_constant=require_zero_constant, rng=rng,
                      indices=indices)
        for i in indices
    }
    network = SyncNetwork(players, adversary=adversary)
    results = network.run(NUM_ROUNDS)
    honest = [r for r in results.values() if r is not None]
    if honest:
        reference = honest[0]
        for result in honest[1:]:
            if result.qualified != reference.qualified:
                raise ProtocolError(
                    "honest players disagree on the qualified set")
    return results, network


def dkg_result_to_keys(scheme, result: DKGResult):
    """Convert a 2-pair DKG result into the Section 3 scheme's key types."""
    from repro.core.keys import PrivateKeyShare, PublicKey, VerificationKey
    if len(result.share_pairs) != 2:
        raise ParameterError("the Section 3 scheme shares two pairs")
    public_key = PublicKey(
        params=scheme.params,
        g_1=result.public_components[0],
        g_2=result.public_components[1],
    )
    share = PrivateKeyShare(
        index=result.index,
        a_1=result.share_pairs[0][0], b_1=result.share_pairs[0][1],
        a_2=result.share_pairs[1][0], b_2=result.share_pairs[1][1],
    )
    verification_keys = {
        j: VerificationKey(index=j, v_1=vks[0], v_2=vks[1])
        for j, vks in result.verification_keys.items()
    }
    return public_key, share, verification_keys
