"""Feldman's verifiable secret sharing.

The dealer publishes commitments ``C_l = g^{a_l}`` to the coefficients of
the sharing polynomial; receiver i checks ``g^{A(i)} = prod_l C_l^{i^l}``.
Feldman's VSS leaks ``g^{secret}`` (the commitment to the constant term),
which is exactly why Pedersen's DKG built on it produces a public key an
attacker can bias — the paper's Section 1 discussion.  We use it for the
GJKR baseline DKG and the bias experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.groups.api import BilinearGroup, GroupElement
from repro.math.polynomial import Polynomial
from repro.sharing.pedersen_vss import failing_shares
from repro.sharing.shamir import validate_threshold


@dataclass
class FeldmanVSS:
    """Dealer-side state: the polynomial and its public commitments."""

    group: BilinearGroup
    generator: GroupElement
    polynomial: Polynomial
    commitments: List[GroupElement]

    @classmethod
    def deal(cls, group: BilinearGroup, generator: GroupElement,
             secret: int, t: int, n: int, rng=None) -> "FeldmanVSS":
        validate_threshold(t, n)
        polynomial = Polynomial.random(t, group.order, constant=secret,
                                       rng=rng)
        commitments = [generator ** coeff for coeff in polynomial.coeffs]
        return cls(group, generator, polynomial, commitments)

    def share_for(self, index: int) -> int:
        """The share sent privately to player ``index`` (1-based)."""
        return self.polynomial(index)

    @staticmethod
    def verify_share(group: BilinearGroup, generator: GroupElement,
                     commitments: List[GroupElement], index: int,
                     share: int) -> bool:
        """Check ``g^share == prod_l C_l^{index^l}``: the Pedersen
        check of :func:`~repro.sharing.pedersen_vss.failing_shares` under
        the one generator, on a batch of one."""
        return not failing_shares(
            group, (generator,), [(commitments, index, (share,))])

    def public_secret_commitment(self) -> GroupElement:
        """``g^secret`` — public in Feldman's VSS (the uniformity leak)."""
        return self.commitments[0]
