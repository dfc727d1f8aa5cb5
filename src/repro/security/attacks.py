"""Concrete attacks reproduced from the paper's discussion.

The headline experiment is the **public-key bias attack on Pedersen's
DKG** (Gennaro et al.; recalled in the paper's Section 1): a rushing
adversary controlling c players waits for the honest dealings, computes
the 2^c candidate public keys obtained by including/excluding each
corrupted contribution, and keeps the subset whose resulting PK satisfies
a target predicate.  Exclusion is forced by simply not dealing, which
makes every honest player complain and the lazy dealer disqualified.

Against an unbiased DKG a fixed balanced predicate holds with probability
1/2; the attack pushes that to ``1 - 2^{-2^c}`` (75% for one corrupted
player, ~94% for two).  The same experiment against the GJKR baseline
stays at 1/2 because a qualified dealer that goes silent during the
extraction phase has its contribution *reconstructed*, not dropped.

The paper's point — and the reason the attack matters here — is that this
bias is provably harmless for the Section 3 signature scheme: adaptive
security holds anyway (Theorem 1), so the cheap one-round DKG can be kept.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dkg.gjkr_dkg import GJKRPlayer, run_gjkr_dkg
from repro.dkg.pedersen_dkg import PedersenDKGPlayer, run_pedersen_dkg
from repro.groups.api import BilinearGroup, GroupElement
from repro.net.adversary import Adversary
from repro.net.simulator import Message


def default_predicate(components: Sequence[GroupElement]) -> bool:
    """A balanced predicate on the public key: LSB of its hash."""
    digest = hashlib.sha256(
        b"".join(c.to_bytes() for c in components)).digest()
    return digest[-1] & 1 == 0


@dataclass
class BiasAttackResult:
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


class PedersenBiasAdversary(Adversary):
    """Rushing adversary that conditionally withholds corrupted dealings."""

    def __init__(self, corrupted_indices: Sequence[int],
                 predicate: Callable[[Sequence[GroupElement]], bool],
                 group: BilinearGroup, g_z, g_r, t: int, n: int,
                 num_pairs: int = 2, rng=None):
        super().__init__(max_corruptions=len(corrupted_indices))
        self.targets = list(corrupted_indices)
        self.predicate = predicate
        self.group = group
        self.g_z = g_z
        self.g_r = g_r
        self.t = t
        self.n = n
        self.num_pairs = num_pairs
        self.rng = rng
        #: Honest player objects the adversary runs for included corruptions.
        self.minions: Dict[int, PedersenDKGPlayer] = {}
        self.included: List[int] = []
        self.achieved: Optional[bool] = None

    def act(self, round_no: int, honest_messages, deliveries):
        super().act(round_no, honest_messages, deliveries)
        if round_no == 0:
            for index in self.targets:
                self.corrupt(index)
                self.minions[index] = PedersenDKGPlayer(
                    index, self.group, self.g_z, self.g_r, self.t, self.n,
                    num_pairs=self.num_pairs, rng=self.rng)
            # Rushing: honest dealings are visible; prepare our dealings,
            # then choose which subset of them to actually send.
            minion_messages = {
                index: minion.on_round(0, [])
                for index, minion in self.minions.items()
            }
            honest_products = self._component_products(honest_messages)
            choice = self._choose_subset(minion_messages, honest_products)
            self.included = choice
            outbound = []
            for index in choice:
                outbound.extend(minion_messages[index])
            return outbound
        # Later rounds: included minions follow the protocol honestly
        # (their dealings are consistent, so no complaints target them).
        outbound = []
        for index in self.included:
            minion = self.minions[index]
            inbox = [
                m for m in deliveries
                if m.is_broadcast or m.recipient == index
            ]
            minion.record_round(inbox)
            outbound.extend(minion.on_round(round_no, inbox))
        return outbound

    # -- attack internals ---------------------------------------------------
    def _component_products(self, honest_messages) -> List[GroupElement]:
        products: List[GroupElement] = [None] * self.num_pairs
        for message in honest_messages:
            if message.kind != "commitments":
                continue
            if message.sender in self.corrupted:
                # Round-0 messages of players corrupted mid-round are
                # retracted by the network; the attack replaces them with
                # its own dealings, so they must not count as honest input.
                continue
            commitments = message.payload["commitments"]
            for k in range(self.num_pairs):
                w0 = commitments[k][0]
                products[k] = w0 if products[k] is None else products[k] * w0
        return products

    def _choose_subset(self, minion_messages, honest_products):
        """Pick the inclusion subset whose PK satisfies the predicate.

        Prefers larger subsets (less conspicuous) among satisfying ones;
        falls back to including everyone when no subset works.
        """
        contributions = {}
        for index, messages in minion_messages.items():
            for message in messages:
                if message.kind == "commitments":
                    contributions[index] = [
                        message.payload["commitments"][k][0]
                        for k in range(self.num_pairs)
                    ]
        indices = list(contributions)
        for size in range(len(indices), -1, -1):
            for subset in combinations(indices, size):
                components = list(honest_products)
                for index in subset:
                    for k in range(self.num_pairs):
                        components[k] = (
                            components[k] * contributions[index][k])
                if self.predicate(components):
                    self.achieved = True
                    return list(subset)
        self.achieved = False
        return indices


def pedersen_bias_experiment(
        group: BilinearGroup, t: int, n: int, trials: int,
        num_corrupted: int = 2,
        predicate: Callable = default_predicate, rng=None,
) -> BiasAttackResult:
    """Run the bias attack ``trials`` times; count predicate successes."""
    g_z = group.derive_g2("bias:g_z")
    g_r = group.derive_g2("bias:g_r")
    successes = 0
    for _ in range(trials):
        adversary = PedersenBiasAdversary(
            corrupted_indices=list(range(1, num_corrupted + 1)),
            predicate=predicate, group=group, g_z=g_z, g_r=g_r,
            t=t, n=n, rng=rng)
        results, _network = run_pedersen_dkg(
            group, g_z, g_r, t, n, adversary=adversary, rng=rng)
        reference = next(iter(results.values()))
        if predicate(reference.public_components):
            successes += 1
    return BiasAttackResult(trials=trials, successes=successes)


def honest_pedersen_baseline(
        group: BilinearGroup, t: int, n: int, trials: int,
        predicate: Callable = default_predicate, rng=None,
) -> BiasAttackResult:
    """Honest runs of the DKG — the predicate rate should be ~1/2."""
    g_z = group.derive_g2("bias:g_z")
    g_r = group.derive_g2("bias:g_r")
    successes = 0
    for _ in range(trials):
        results, _network = run_pedersen_dkg(group, g_z, g_r, t, n, rng=rng)
        reference = next(iter(results.values()))
        if predicate(reference.public_components):
            successes += 1
    return BiasAttackResult(trials=trials, successes=successes)


class GJKRDropoutAdversary(Adversary):
    """Plays honestly through the sharing phase, goes silent afterwards.

    This is the best analogue of the Pedersen bias strategy against GJKR:
    by the time the Feldman extraction reveals anything about the public
    key, the qualified set is already fixed, so the only remaining move is
    to withhold the extraction broadcast — which triggers reconstruction
    instead of exclusion.
    """

    def __init__(self, corrupted_indices: Sequence[int],
                 predicate: Callable[[Sequence[GroupElement]], bool],
                 group: BilinearGroup, g_z, g_r, t: int, n: int, rng=None):
        super().__init__(max_corruptions=len(corrupted_indices))
        self.targets = list(corrupted_indices)
        self.predicate = predicate
        self.group = group
        self.g_z = g_z
        self.g_r = g_r
        self.t = t
        self.n = n
        self.rng = rng
        self.minions: Dict[int, GJKRPlayer] = {}
        self.dropped: List[int] = []

    def act(self, round_no: int, honest_messages, deliveries):
        super().act(round_no, honest_messages, deliveries)
        if round_no == 0:
            for index in self.targets:
                self.corrupt(index)
                self.minions[index] = GJKRPlayer(
                    index, self.group, self.g_z, self.g_r, self.t, self.n,
                    rng=self.rng)
        outbound = []
        for index, minion in self.minions.items():
            inbox = [
                m for m in deliveries
                if m.is_broadcast or m.recipient == index
            ]
            minion.record_round(inbox)
            messages = minion.on_round(round_no, inbox)
            if round_no >= 3:
                # Rushing: decide whether withholding the extraction
                # broadcast would flip the predicate; go silent if so.
                # (GJKR reconstructs regardless, so this cannot help.)
                if index not in self.dropped:
                    self.dropped.append(index)
                continue
            outbound.extend(messages)
        return outbound


def gjkr_bias_experiment(
        group: BilinearGroup, t: int, n: int, trials: int,
        num_corrupted: int = 2,
        predicate: Callable = default_predicate, rng=None,
) -> BiasAttackResult:
    """The dropout strategy against GJKR; the rate should stay ~1/2."""
    g_z = group.derive_g2("bias:g_z")
    g_r = group.derive_g2("bias:g_r")
    successes = 0
    for _ in range(trials):
        adversary = GJKRDropoutAdversary(
            corrupted_indices=list(range(1, num_corrupted + 1)),
            predicate=predicate, group=group, g_z=g_z, g_r=g_r,
            t=t, n=n, rng=rng)
        results, _network = run_gjkr_dkg(
            group, g_z, g_r, t, n, adversary=adversary, rng=rng)
        reference = next(iter(results.values()))
        if predicate([reference.public_key]):
            successes += 1
    return BiasAttackResult(trials=trials, successes=successes)


class BadShareAdversary(Adversary):
    """Robustness attack: corrupted players emit garbage partial signatures.

    Used by the F5 experiment — Combine must still succeed whenever t+1
    honest partials are present, because Share-Verify filters the garbage.
    """

    def __init__(self, corrupted_indices: Sequence[int]):
        super().__init__(max_corruptions=len(corrupted_indices))
        self.targets = list(corrupted_indices)

    def act(self, round_no, honest_messages, deliveries):
        super().act(round_no, honest_messages, deliveries)
        if round_no == 0:
            for index in self.targets:
                self.corrupt(index)
        return []
