"""Key material and signature types for the Section 3 threshold scheme.

Naming follows the paper:

* ``PublicKey`` holds ``(g_hat_1, g_hat_2)`` plus the public parameters.
* ``PrivateKeyShare`` for player i holds the two pairs
  ``{(A_k(i), B_k(i))}_{k=1,2}`` — four scalars, i.e. **O(1) storage**
  regardless of n (the paper's "short shares" property).
* ``VerificationKey`` holds ``(V_hat_{1,i}, V_hat_{2,i})``.
* ``PartialSignature`` is one server's ``(z_i, r_i)``; ``Signature`` the
  combined ``(z, r)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.groups.api import BilinearGroup, GroupElement


@dataclass(frozen=True)
class ThresholdParams:
    """Common public parameters ``params`` (Section 3.1).

    ``g_z`` and ``g_r`` are random-oracle-derived generators of G_hat, so
    that nobody knows ``log_{g_z}(g_r)`` and no setup round is needed.
    """

    group: BilinearGroup
    t: int
    n: int
    g_z: GroupElement
    g_r: GroupElement
    hash_domain: str = "LJY14:H"

    def __post_init__(self):
        # Every verification equation pairs against g_z and g_r, so their
        # Miller-loop line coefficients are precomputed once here.
        self.group.prepare_pair(self.g_z)
        self.group.prepare_pair(self.g_r)

    @classmethod
    def generate(cls, group: BilinearGroup, t: int, n: int,
                 label: str = "LJY14") -> "ThresholdParams":
        from repro.sharing.shamir import validate_threshold
        validate_threshold(t, n)
        return cls(
            group=group,
            t=t,
            n=n,
            g_z=group.derive_g2(f"{label}:g_z"),
            g_r=group.derive_g2(f"{label}:g_r"),
            hash_domain=f"{label}:H",
        )

    def hash_message(self, message: bytes) -> Tuple[GroupElement, ...]:
        """The random oracle H : {0,1}* -> G x G.

        Robust Combine hashes the same message once per partial it
        checks; on BN254 the one hash-to-curve memo
        (:mod:`repro.curves.hash_to_curve`) answers the repeats.
        """
        return tuple(self.group.hash_to_g1_vector(message, 2,
                                                  self.hash_domain))


@dataclass(frozen=True)
class PublicKey:
    """``PK = (params, (g_hat_1, g_hat_2))``."""

    params: ThresholdParams
    g_1: GroupElement
    g_2: GroupElement

    def to_bytes(self) -> bytes:
        return self.g_1.to_bytes() + self.g_2.to_bytes()


@dataclass(frozen=True)
class PrivateKeyShare:
    """``SK_i = {(A_k(i), B_k(i))}_{k=1,2}`` — four scalars."""

    index: int
    a_1: int
    b_1: int
    a_2: int
    b_2: int

    def storage_bytes(self, scalar_bytes: int = 32) -> int:
        """Bytes a server must persist — constant in n."""
        return 4 * scalar_bytes

    def __add__(self, other: "PrivateKeyShare") -> "PrivateKeyShare":
        """Used by proactive refresh: add a share of zero."""
        if self.index != other.index:
            raise ValueError("cannot add shares of different players")
        return PrivateKeyShare(
            self.index,
            self.a_1 + other.a_1, self.b_1 + other.b_1,
            self.a_2 + other.a_2, self.b_2 + other.b_2,
        )

    def reduce(self, order: int) -> "PrivateKeyShare":
        return PrivateKeyShare(
            self.index, self.a_1 % order, self.b_1 % order,
            self.a_2 % order, self.b_2 % order)


@dataclass(frozen=True)
class VerificationKey:
    """``VK_i = (V_hat_{1,i}, V_hat_{2,i})`` — publicly computable."""

    index: int
    v_1: GroupElement
    v_2: GroupElement

    def to_bytes(self) -> bytes:
        return self.v_1.to_bytes() + self.v_2.to_bytes()


@dataclass(frozen=True)
class PartialSignature:
    """Player i's non-interactive contribution ``(z_i, r_i)``."""

    index: int
    z: GroupElement
    r: GroupElement

    def to_bytes(self) -> bytes:
        return self.z.to_bytes() + self.r.to_bytes()


@dataclass(frozen=True)
class Signature:
    """A combined full signature ``(z, r)`` — two G elements (512 bits)."""

    z: GroupElement
    r: GroupElement

    def to_bytes(self) -> bytes:
        return self.z.to_bytes() + self.r.to_bytes()

    @property
    def size_bits(self) -> int:
        return len(self.to_bytes()) * 8


#: Convenience alias: a full key-generation output.
KeygenOutput = Tuple[PublicKey, Dict[int, PrivateKeyShare],
                     Dict[int, VerificationKey]]
