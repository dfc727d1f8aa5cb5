"""Abstract interface for bilinear groups (multiplicative notation).

Elements follow the paper's multiplicative convention: ``a * b`` is the
group operation, ``a ** k`` exponentiation by an integer scalar, and
``a.inverse()`` (or ``a ** -1``) the group inverse.  The neutral element of
each group is exposed on the group object.

The single most important method for efficiency is
:meth:`BilinearGroup.pairing_product_is_one`: every verification equation in
the paper has the shape ``prod_i e(X_i, Y_hat_i) = 1`` and backends can
evaluate the product with one shared final exponentiation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, Sequence, Tuple


class GroupElement(ABC):
    """A multiplicative group element (G, G_hat or G_T)."""

    __slots__ = ()

    @abstractmethod
    def op(self, other: "GroupElement") -> "GroupElement":
        """The group operation."""

    @abstractmethod
    def exp(self, scalar: int) -> "GroupElement":
        """Exponentiation by an integer (reduced modulo the group order)."""

    @abstractmethod
    def inverse(self) -> "GroupElement":
        """The group inverse."""

    @abstractmethod
    def is_identity(self) -> bool:
        """True for the neutral element."""

    @abstractmethod
    def to_bytes(self) -> bytes:
        """Canonical byte encoding (used for sizes and hashing)."""

    def precompute(self) -> "GroupElement":
        """Hint that this element will be exponentiated many times.

        Backends with fixed-base combs build one here, and only here:
        ``**`` reads a comb only once this built it, so a base reused
        across many scalars is marked by its owner.  Others ignore the
        hint.  Returns self for chaining.
        """
        return self

    # -- operator sugar ----------------------------------------------------
    def __mul__(self, other):
        return self.op(other)

    def __truediv__(self, other):
        return self.op(other.inverse())

    def __pow__(self, scalar: int):
        if scalar < 0:
            return self.exp(-scalar).inverse()
        return self.exp(scalar)

    def __bool__(self):
        return not self.is_identity()


class BilinearGroup(ABC):
    """A bilinear environment (G, G_hat, G_T) of prime order with a pairing."""

    #: Backend name ("bn254", "toy", ...).
    name: str
    #: The common prime order of the three groups.
    order: int
    #: True when G == G_hat (Type-1 / symmetric pairing).
    symmetric: bool
    #: Encoded element sizes in bytes (reported by the size experiments).
    g1_bytes: int
    g2_bytes: int
    gt_bytes: int
    #: True when the backend provides real cryptographic hardness.
    secure: bool

    # -- neutral elements and generators ------------------------------------
    @abstractmethod
    def g1_identity(self) -> GroupElement: ...

    @abstractmethod
    def g2_identity(self) -> GroupElement: ...

    @abstractmethod
    def gt_identity(self) -> GroupElement: ...

    @abstractmethod
    def g1_generator(self) -> GroupElement: ...

    @abstractmethod
    def g2_generator(self) -> GroupElement: ...

    # -- random-oracle derivations ------------------------------------------
    @abstractmethod
    def derive_g1(self, label: str) -> GroupElement:
        """Generator of G with unknown discrete log (random-oracle derived)."""

    @abstractmethod
    def derive_g2(self, label: str) -> GroupElement:
        """Generator of G_hat with unknown discrete log."""

    @abstractmethod
    def hash_to_g1_vector(self, data: bytes, dimension: int,
                          domain: str = "H") -> List[GroupElement]:
        """The random oracle H : {0,1}* -> G^dimension."""

    # -- pairing -------------------------------------------------------------
    @abstractmethod
    def pair(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """The bilinear map e(a, b) with a in G and b in G_hat."""

    @abstractmethod
    def pairing_product(
            self,
            pairs: Iterable[Tuple[GroupElement, GroupElement]],
    ) -> GroupElement:
        """``prod_i e(a_i, b_i)`` (backends share the final exponentiation)."""

    def pairing_product_is_one(
            self,
            pairs: Sequence[Tuple[GroupElement, GroupElement]],
    ) -> bool:
        """Check the canonical verification shape ``prod e(a_i, b_i) = 1``."""
        return self.pairing_product(pairs).is_identity()

    def prepare_pair(self, element: GroupElement) -> GroupElement:
        """Precompute pairing state for a G_hat element used as a fixed
        pairing argument (``g_z``, ``g_r``, public/verification keys).

        Backends that cache Miller-loop line coefficients do so here; the
        default is a no-op.  Returns the element for chaining.
        """
        return element

    def same_group(self, element, reference: GroupElement) -> bool:
        """True when ``element`` lies in ``reference``'s group (G, G_hat
        or G_T).  Protocol payloads arrive as objects, not bytes: a
        foreign one is refused here before it reaches group arithmetic."""
        return type(element) is type(reference)

    # -- fast exponentiation --------------------------------------------------
    @staticmethod
    def _checked_multi_exp_args(bases, scalars):
        """Shared argument validation for every ``multi_exp`` override."""
        bases = list(bases)
        scalars = list(scalars)
        if len(bases) != len(scalars):
            raise ValueError("bases and scalars must have equal length")
        if not bases:
            raise ValueError("multi_exp needs at least one base")
        return bases, scalars

    def multi_exp(self, bases: Sequence[GroupElement],
                  scalars: Sequence[int],
                  scope: Optional[dict] = None) -> GroupElement:
        """``prod_i bases[i] ** scalars[i]`` — one multi-exponentiation.

        All bases must come from the same group — G, G_hat **or G_T**
        (target-group products appear in GS-proof and LHSPS folding).
        The default folds naively; backends override with multi-scalar
        multiplication sharing one doubling/squaring chain per group.

        ``scope`` is an empty dict the caller makes for a run of products
        over overlapping bases and drops when the run ends: a backend
        that builds per-base tables files them there and reuses them in
        every later call given the same dict.  The default ignores it.
        """
        bases, scalars = self._checked_multi_exp_args(bases, scalars)
        result = None
        for base, scalar in zip(bases, scalars):
            term = base ** (scalar % self.order)
            result = term if result is None else result * term
        return result

    def multi_exp_windows(self, base_sets: Sequence[Sequence[GroupElement]],
                          scalar_rows: Sequence[Sequence[int]],
                          scope: Optional[dict] = None
                          ) -> List[List[GroupElement]]:
        """``[[multi_exp(bases, row, scope) for row in scalar_rows] for
        bases in base_sets]`` — the same exponent rows over many base
        sets.

        Share-Sign is one shape: ``z_i`` and ``r_i``, for every signer
        of a quorum, are all products over the hashed pair
        ``(H_1, H_2)``, and a window signs many messages under one
        quorum.  A coined product is the other: its four MSMs (over the
        z, r, H_1 and H_2 points) share one row of coins, so they are
        four sets under one row, with a localization's ``scope`` (see
        :meth:`multi_exp`).  The default loops :meth:`multi_exp`;
        backends whose multi-exponentiation precomputes per base or per
        row do that work once for all rows, or once for all sets.
        """
        return [[self.multi_exp(list(bases), row, scope)
                 for row in scalar_rows]
                for bases in base_sets]

    def batch_normalize(self, elements: Sequence[GroupElement]) -> None:
        """Hint that many elements are about to enter hot arithmetic.

        Backends with projective internal representations normalize them
        together (one shared field inversion) so the follow-up MSM builds
        its tables from affine inputs; the default is a no-op.  Only
        cached representation may change — never the group value.
        """

    # -- scalars / deserialization --------------------------------------------
    @abstractmethod
    def random_scalar(self, rng=None) -> int:
        """Uniform scalar in [0, order)."""

    @abstractmethod
    def g1_from_bytes(self, data: bytes) -> GroupElement: ...

    @abstractmethod
    def g2_from_bytes(self, data: bytes) -> GroupElement: ...

    def __repr__(self):
        return f"<BilinearGroup {self.name}>"
