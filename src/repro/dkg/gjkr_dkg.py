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
from repro.sharing.pedersen_vss import commitment_eval

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

    def _feldman_ok(self, dealer: int, index: int, share) -> bool:
        feldman = self.feldman.get(dealer)
        return feldman is not None and (
            self.vss.g_z ** share[0] == commitment_eval(
                self.group, feldman, index))

    def _extraction_complain(self) -> List[Message]:
        """Publish our share pair against dealers failing the Feldman check."""
        return [
            broadcast(self.index, "x-complaint",
                      {"accused": dealer, "share": self._share_of(dealer)})
            for dealer in self.qualified
            if dealer != self.index and not self._feldman_ok(
                dealer, self.index, self._share_of(dealer))]

    def _published_share(self, message, key: str):
        """``(payload[key], its share)`` for a qualified dealer with a
        share that verifies against its Pedersen commitments, else None."""
        dealer = self._int_field(message.payload, key)
        if dealer not in self.qualified:
            return None
        share = self._parse_scalars(message.payload.get("share"), 2)
        if share is None or not self.vss.verify(
                self.received_commitments[dealer][0], message.sender,
                share):
            return None
        return dealer, share

    def _ingest_extraction_complaints(self, inbox: Sequence[Message]) -> None:
        for message in inbox:
            if message.kind != "x-complaint":
                continue
            # Only *valid* complaints (share matches the Pedersen
            # commitment but not the Feldman one) trigger reconstruction.
            published = self._published_share(message, "accused")
            if published is None:
                continue
            accused, share = published
            if not self._feldman_ok(accused, message.sender, share):
                self.extraction_complaints.setdefault(accused, {})[
                    message.sender] = share

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
        for round_messages in self.history:
            for message in round_messages:
                if message.kind != "reconstruct":
                    continue
                published = self._published_share(message, "dealer")
                if (published is not None
                        and published[0] in self.extraction_complaints):
                    dealer, share = published
                    self.reconstruction_shares.setdefault(dealer, {})[
                        message.sender] = share
        public_key = None
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
                a_0 = interpolate_at(points, self.group.order, x=0)
                contribution = self.vss.g_z ** a_0
            else:
                contribution = self.feldman[dealer][0]
            public_key = (contribution if public_key is None
                          else public_key * contribution)
        share = sum(
            self._share_of(j)[0] for j in self.qualified) % self.group.order
        verification_keys = {}
        for j in self.receivers:
            vk = None
            for dealer in self.qualified:
                feldman = self.feldman.get(dealer)
                if feldman is None:
                    continue
                term = commitment_eval(self.group, feldman, j)
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
