"""The Gennaro-Jarecki-Krawczyk-Rabin "new-DKG" baseline.

The paper's Section 1 contrasts Pedersen's DKG (one optimistic round, but a
biasable public key) with the GJKR protocol (uniform public key, extra
extraction phase).  We implement GJKR to measure that cost difference
(experiment T4) and to demonstrate that the bias attack of
:mod:`repro.security.attacks` fails against it.

Structure (single shared scalar a, masking scalar b):

* Rounds 0-2: exactly Pedersen's DKG — deal with Pedersen commitments
  ``C_l = g_z^{a_l} g_r^{b_l}``, complain, respond.  This fixes the
  qualified set Q **before** anything about the public key is revealed.
* Round 3 (extraction): each dealer in Q broadcasts Feldman commitments
  ``A_l = g_z^{a_l}`` to its a-polynomial alone.
* Round 4 (extraction complaints): players whose share fails the Feldman
  check broadcast their (publicly verifiable) share pair as evidence.
* Round 5 (reconstruction): on a valid extraction complaint against dealer
  j, every player broadcasts its share of dealer j so that a_j0 can be
  interpolated publicly.  Dealer j *stays in Q* — its contribution is
  reconstructed, which is the crucial difference that kills the bias
  attack (an attacker cannot remove its contribution after seeing others').

The public key is ``y = g_z^{sum_{j in Q} a_j0}``.

Rounds 0-2 and the qualified set are
:class:`~repro.dkg.dealing.DealingPlayer`'s, dealing one random pair;
:class:`GJKRPlayer` adds only the extraction rounds 3-5 and its own
output, parsing their payloads with the core's validating parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dkg.dealing import DealingPlayer, PedersenPairs, run_dealing
from repro.errors import ProtocolError
from repro.groups.api import BilinearGroup, GroupElement
from repro.math.lagrange import interpolate_at
from repro.net.adversary import Adversary
from repro.net.simulator import Message, broadcast
from repro.sharing.pedersen_vss import commitment_eval, failing_shares

NUM_ROUNDS = 6
ROUND_EXTRACT, ROUND_X_COMPLAIN, ROUND_RECONSTRUCT = 3, 4, 5


@dataclass
class GJKRResult:
    index: int
    qualified: List[int]
    share: int                      # x_i = sum_{j in Q} A_j(i)
    public_key: GroupElement        # y = g_z^{x}
    verification_keys: Dict[int, GroupElement]


class GJKRPlayer(DealingPlayer):
    """An honest participant of the GJKR new-DKG."""

    num_rounds = NUM_ROUNDS

    def __init__(self, index: int, group: BilinearGroup,
                 g_z: GroupElement, g_r: GroupElement, t: int, n: int,
                 rng=None):
        indices = range(1, n + 1)
        super().__init__(index, PedersenPairs(group, g_z, g_r), t, 1,
                         indices, indices, rng=rng)
        self.feldman: Dict[int, List[GroupElement]] = {}
        self.extraction_complaints: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self.reconstruction_shares: Dict[int, Dict[int, Tuple[int, int]]] = {}

    # -- rounds -----------------------------------------------------------
    def on_round(self, round_no: int,
                 inbox: Sequence[Message]) -> List[Message]:
        if round_no == ROUND_EXTRACT:
            self._qualify()
            return self._extract()
        if round_no == ROUND_X_COMPLAIN:
            self._ingest_feldman(inbox)
            return self._extraction_complain()
        if round_no == ROUND_RECONSTRUCT:
            self._ingest_extraction_complaints(inbox)
            return self._reconstruct()
        return super().on_round(round_no, inbox)

    def _share_of(self, dealer: int) -> Tuple[int, int]:
        return self.received_shares[dealer][0]

    def _extract(self) -> List[Message]:
        """Broadcast Feldman commitments g_z^{a_l} (extraction phase)."""
        if self.index not in self.qualified:
            return []
        feldman = [
            self.vss.g_z ** coeff for coeff in self.dealings[0].poly_a.coeffs]
        return [broadcast(self.index, "feldman", {"feldman": feldman})]

    def _ingest_feldman(self, inbox: Sequence[Message]) -> None:
        for message in inbox:
            if message.kind == "feldman" and isinstance(message.payload, dict):
                feldman = message.payload.get("feldman")
                if self._is_vector(feldman):
                    self.feldman[message.sender] = feldman

    def _feldman_failing(self, claims) -> List[int]:
        """Positions of the ``(dealer, receiver, share pair)`` claims
        whose a-share fails the Feldman check ``g_z^a = prod_l
        A_l^{i^l}``, or whose dealer sent no Feldman commitments: the
        sent ones in one coined product under ``(g_z,)``."""
        sent = [position for position, (dealer, _, _) in enumerate(claims)
                if dealer in self.feldman]
        failing = failing_shares(self.group, (self.vss.g_z,), [
            (self.feldman[dealer], index, share[:1])
            for dealer, index, share in [claims[p] for p in sent]])
        unsent = set(range(len(claims))) - set(sent)
        return sorted(unsent | {sent[position] for position in failing})

    def _extraction_complain(self) -> List[Message]:
        """Publish our share pair against dealers failing the Feldman check."""
        dealers = [dealer for dealer in self.qualified if dealer != self.index]
        return [
            broadcast(self.index, "x-complaint", {
                "accused": dealers[position],
                "share": self._share_of(dealers[position])})
            for position in self._feldman_failing([
                (dealer, self.index, self._share_of(dealer))
                for dealer in dealers])]

    def _published_shares(self, messages, key: str) -> list:
        """``(sender, payload[key], its share)`` for every message naming
        a qualified dealer with a share that verifies against that
        dealer's Pedersen commitments — all of them one batch."""
        claims = []
        for message in messages:
            dealer = self._int_field(message.payload, key)
            if dealer not in self.qualified:
                continue
            share = self._parse_scalars(message.payload.get("share"), 2)
            if share is not None:
                claims.append((message.sender, dealer, share))
        failing = set(self.vss.failing([
            (self.received_commitments[dealer][0], sender, share)
            for sender, dealer, share in claims]))
        return [claim for position, claim in enumerate(claims)
                if position not in failing]

    def _ingest_extraction_complaints(self, inbox: Sequence[Message]) -> None:
        # Only *valid* complaints (share matches the Pedersen commitment
        # but not the Feldman one) trigger reconstruction.
        claims = [(accused, sender, share)
                  for sender, accused, share in self._published_shares(
                      [m for m in inbox if m.kind == "x-complaint"],
                      "accused")]
        for position in self._feldman_failing(claims):
            accused, sender, share = claims[position]
            self.extraction_complaints.setdefault(accused, {})[
                sender] = share

    def _reconstruct(self) -> List[Message]:
        """Everyone publishes its shares of dealers under reconstruction."""
        return [
            broadcast(self.index, "reconstruct",
                      {"dealer": dealer, "share": self._share_of(dealer)})
            for dealer in sorted(self.extraction_complaints)]

    # -- output --------------------------------------------------------------
    def finalize(self) -> GJKRResult:
        if self._result is not None:
            return self._result
        # Collect reconstruction shares from the final delivery.
        for sender, dealer, share in self._published_shares(
                [message for round_messages in self.history
                 for message in round_messages
                 if message.kind == "reconstruct"], "dealer"):
            if dealer in self.extraction_complaints:
                self.reconstruction_shares.setdefault(dealer, {})[
                    sender] = share
        order = self.group.order
        public_key = None
        # The a-share points of every reconstructed dealer: its Feldman
        # vector is missing or wrong, which is why it was reconstructed.
        recovered: Dict[int, Dict[int, int]] = {}
        for dealer in self.qualified:
            if dealer in self.extraction_complaints:
                points = {
                    sender: pair[0]
                    for sender, pair in self.reconstruction_shares.get(
                        dealer, {}).items()
                }
                if len(points) < self.t + 1:
                    raise ProtocolError(
                        f"cannot reconstruct dealer {dealer}'s contribution")
                recovered[dealer] = points
                contribution = self.vss.g_z ** interpolate_at(points, order)
            else:
                contribution = self.feldman[dealer][0]
            public_key = (contribution if public_key is None
                          else public_key * contribution)
        share = sum(self._share_of(j)[0] for j in self.qualified) % order
        # VK_j = g_z^{sum_{dealer} A_dealer(j)}.  The dealers with valid
        # Feldman vectors enter through their column aggregates: one
        # (t+1)-term evaluation per receiver.  A reconstructed dealer's
        # A(j) is interpolated at j from its published points.
        columns = self._fold_columns([self.feldman[dealer]
                                      for dealer in self.qualified
                                      if dealer not in recovered])
        verification_keys = {}
        for j in self.receivers:
            vk = commitment_eval(self.group, columns, j) if columns else None
            if recovered:
                term = self.vss.g_z ** (sum(
                    interpolate_at(points, order, x=j)
                    for points in recovered.values()) % order)
                vk = term if vk is None else vk * term
            verification_keys[j] = vk
        self._result = GJKRResult(
            index=self.index,
            qualified=list(self.qualified),
            share=share,
            public_key=public_key,
            verification_keys=verification_keys,
        )
        return self._result


def run_gjkr_dkg(group: BilinearGroup, g_z: GroupElement,
                 g_r: GroupElement, t: int, n: int,
                 adversary: Optional[Adversary] = None, rng=None):
    """Run the GJKR new-DKG; returns (results_by_player, network)."""
    players = {
        i: GJKRPlayer(i, group, g_z, g_r, t, n, rng=rng)
        for i in range(1, n + 1)
    }
    return run_dealing(players, adversary)
