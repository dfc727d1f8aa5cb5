"""Pedersen's two-generator verifiable secret sharing.

This is the VSS inside the paper's Dist-Keygen (Section 3.1, step 1): a
dealer shares a *pair* (a, b) with two degree-t polynomials A[X], B[X] and
broadcasts the commitments

    W_hat_l = g_z^{a_l} * g_r^{b_l}        for l = 0..t

Receiver i checks equation (1) of the paper:

    g_z^{A(i)} * g_r^{B(i)} == prod_l W_hat_l^{i^l}.

A receiver of many dealings checks them all at once: the small-exponent
batch of :func:`failing_shares` raises each dealing's equation to a
random 64-bit coin and multiplies them, so both generators are
exponentiated once per batch rather than once per dealing, and a batch
hiding a wrong share passes with probability at most 2^-64.  Only a
failing batch is re-checked dealing by dealing — each a batch of one,
which is equation (1) exactly.

Unlike Feldman's VSS, the constant-term commitment ``g_z^a g_r^b``
information-theoretically hides ``a`` (it is a Pedersen commitment), which
is what the paper's adaptive security proof exploits.

The commitments live in G_hat (the paper commits in the second group since
the public key ``g_hat_k`` lives there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.groups.api import BilinearGroup, GroupElement
from repro.math.polynomial import Polynomial
from repro.math.rng import batch_coins
from repro.sharing.shamir import validate_threshold


@dataclass
class PedersenVSS:
    """Dealer-side state for one shared pair (a, b)."""

    group: BilinearGroup
    g_z: GroupElement
    g_r: GroupElement
    poly_a: Polynomial
    poly_b: Polynomial
    commitments: List[GroupElement]

    @classmethod
    def deal(cls, group: BilinearGroup, g_z: GroupElement,
             g_r: GroupElement, t: int, n: int,
             secret_pair: Tuple[int, int] | None = None,
             rng=None) -> "PedersenVSS":
        """Share a random pair (or a fixed one, e.g. (0, 0) for refresh)."""
        validate_threshold(t, n)
        secret_a = secret_b = None
        if secret_pair is not None:
            secret_a, secret_b = secret_pair
        poly_a = Polynomial.random(t, group.order, constant=secret_a, rng=rng)
        poly_b = Polynomial.random(t, group.order, constant=secret_b, rng=rng)
        commitments = [
            (g_z ** poly_a.coeffs[l]) * (g_r ** poly_b.coeffs[l])
            for l in range(t + 1)
        ]
        return cls(group, g_z, g_r, poly_a, poly_b, commitments)

    @property
    def secret_pair(self) -> Tuple[int, int]:
        return (self.poly_a.constant_term, self.poly_b.constant_term)

    def share_for(self, index: int) -> Tuple[int, int]:
        """The pair (A(i), B(i)) sent privately to player ``index``."""
        return (self.poly_a(index), self.poly_b(index))

    @staticmethod
    def verify_share(group: BilinearGroup, g_z: GroupElement,
                     g_r: GroupElement,
                     commitments: Sequence[GroupElement], index: int,
                     share: Tuple[int, int]) -> bool:
        """The paper's check (1): g_z^{A(i)} g_r^{B(i)} = prod W_l^{i^l}
        — :func:`failing_shares` on a batch of one."""
        return not failing_shares(
            group, (g_z, g_r), [(commitments, index, share)])


#: Share checks run by :func:`failing_shares` in this process: coined
#: products over two or more items (``batched_checks``), checks of one
#: item (``single_checks``, a lone share or a fallback's item) and
#: coined products that failed and were re-checked item by item
#: (``fallbacks``) — the VSS counterpart of ``MSM_COUNTERS``; read
#: deltas, never reset.
DKG_COUNTERS = {"batched_checks": 0, "single_checks": 0, "fallbacks": 0}


def failing_shares(group: BilinearGroup,
                   generators: Sequence[GroupElement],
                   items: Sequence[tuple]) -> List[int]:
    """Positions of the ``items`` whose share fails equation (1).

    Each item is ``(commitments, index, share)``: a dealing's W_0..W_t,
    the receiver index i and one scalar per generator; it holds when
    ``prod_j generators[j]^{share[j]} == prod_l W_l^{i^l}``.  Every
    VSS check of the key lifecycle lands here: Pedersen pairs under
    ``(g_z, g_r)``, each lane of the Appendix F triples, GJKR's Feldman
    values under ``(g_z,)`` and a dealer's published responses.

    Two or more items are checked with ONE small-exponent product: with
    64-bit coins ``rho`` drawn here, after the items are fixed,

        prod_j g_j^{sum rho s_j} == prod_items E^{rho},

    ``E`` being each item's commitments evaluated at its index (one
    window call per distinct index, :func:`_commitment_evals`).  A batch
    holding a failing item passes with probability at most 2^-64 over
    its coins (:func:`~repro.math.rng.batch_coins`); when the product
    fails, every item is checked alone.  One item is that same check
    with the coin 1 — exact, and no coin is drawn.  The coins come from
    ``secrets``, never from a caller's seeded stream, so a seeded run's
    draws and its results do not depend on them.
    """
    items = list(items)
    if not items:
        return []
    single = len(items) == 1
    DKG_COUNTERS["single_checks" if single else "batched_checks"] += 1
    coins = [1] if single else batch_coins(len(items))
    order = group.order
    left = group.multi_exp(generators, [
        sum(coin * share[j] for coin, (_, _, share) in zip(coins, items))
        % order for j in range(len(generators))])
    values = _commitment_evals(group, items)
    right = values[0] if single else group.multi_exp(values, coins)
    if left == right:
        return []
    if single:
        return [0]
    DKG_COUNTERS["fallbacks"] += 1
    return [position for position, item in enumerate(items)
            if failing_shares(group, generators, [item])]


def _commitment_evals(group: BilinearGroup,
                     items: Sequence[tuple]) -> List[GroupElement]:
    """Per ``(commitments, index, ...)`` item, ``prod_l W_l^{index^l}``.

    Items sharing an index (every dealing a receiver checks) share one
    exponent row, so they go to ONE
    :meth:`~repro.groups.api.BilinearGroup.multi_exp_windows` call: the
    row is recoded once and every commitment's table shares one batch
    inversion.
    """
    by_row: Dict[tuple, List[int]] = {}
    for position, (commitments, index, *_) in enumerate(items):
        by_row.setdefault((index, len(commitments)), []).append(position)
    values: List[GroupElement] = [None] * len(items)
    for (index, length), positions in by_row.items():
        products = group.multi_exp_windows(
            [list(items[position][0]) for position in positions],
            [index_powers(group.order, index, length)])
        for position, (value,) in zip(positions, products):
            values[position] = value
    return values


def index_powers(order: int, index: int, count: int) -> list:
    """``[index^0, index^1, ..., index^{count-1}] mod order``."""
    powers = [1]
    for _ in range(count - 1):
        powers.append(powers[-1] * index % order)
    return powers


def commitment_eval(group: BilinearGroup,
                    commitments: Sequence[GroupElement],
                    index: int) -> GroupElement:
    """``prod_l W_l^{index^l}`` — the committed value of the polynomials
    at ``index``, as one (t+1)-term multi-exponentiation (GJKR derives
    its verification keys with it; share checks evaluate many vectors
    at once through :func:`_commitment_evals`)."""
    commitments = list(commitments)
    return group.multi_exp(
        commitments, index_powers(group.order, index, len(commitments)))
