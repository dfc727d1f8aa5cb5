"""Generic prime-field arithmetic.

The hot paths of the pairing work directly on Python integers for speed; this
class exists for the protocol layer (shares, scalars, polynomial algebra),
where clarity matters more than raw throughput.
"""

from __future__ import annotations

import secrets


class Fp:
    """An element of the prime field F_p.

    Instances are immutable.  Arithmetic between elements of different
    fields raises ``ValueError``; integers are coerced into the field of the
    other operand, which keeps protocol code readable
    (``share * 2``, ``x - 1`` and so on).
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus <= 1:
            raise ValueError("modulus must be a prime > 1")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", value % modulus)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Fp elements are immutable")

    # -- helpers ---------------------------------------------------------
    @classmethod
    def random(cls, modulus: int, rng=None) -> "Fp":
        """Sample a uniformly random field element.

        ``rng`` may be a ``random.Random`` (deterministic tests) or ``None``
        for a cryptographically secure sample.
        """
        if rng is None:
            return cls(secrets.randbelow(modulus), modulus)
        return cls(rng.randrange(modulus), modulus)

    @classmethod
    def zero(cls, modulus: int) -> "Fp":
        return cls(0, modulus)

    @classmethod
    def one(cls, modulus: int) -> "Fp":
        return cls(1, modulus)

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.modulus != self.modulus:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return Fp(other, self.modulus)
        return NotImplemented

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(other.value - self.value, self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.value, self.modulus)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        return Fp(pow(self.value, exponent, self.modulus), self.modulus)

    def inverse(self) -> "Fp":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return Fp(pow(self.value, -1, self.modulus), self.modulus)

    # -- comparisons / hashing -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus
        return (
            isinstance(other, Fp)
            and self.modulus == other.modulus
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __int__(self):
        return self.value

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Fp({self.value})"


def legendre_symbol(a: int, p: int) -> int:
    """Return the Legendre symbol (a/p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    symbol = pow(a, (p - 1) // 2, p)
    return -1 if symbol == p - 1 else symbol


def sqrt_mod(a: int, p: int) -> int | None:
    """Return a square root of ``a`` modulo odd prime ``p``, or None.

    Uses the fast `p % 4 == 3` exponentiation when available (true for the
    BN254 base field) and Tonelli-Shanks otherwise.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        # The candidate squares to a or to -a: one exponentiation both
        # finds the root and decides residuosity.
        y = pow(a, (p + 1) // 4, p)
        return y if y * y % p == a else None
    if legendre_symbol(a, p) != 1:
        return None
    # Tonelli-Shanks for p % 4 == 1.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2i, i = t, 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
