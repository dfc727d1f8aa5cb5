"""Prime-field helpers: the Legendre symbol and square roots modulo an
odd prime, over plain ints.

Every layer — the tower, the curves and the protocols — holds field
elements as Python ints reduced modulo its prime.
"""

from __future__ import annotations


def legendre_symbol(a: int, p: int) -> int:
    """Return the Legendre symbol (a/p) in {-1, 0, 1} for odd prime p.

    Computed as the Jacobi symbol by the binary recurrence (quadratic
    reciprocity plus the rule for (2/n)), which costs a fraction of
    Euler's criterion ``a^((p-1)/2)`` at 254 bits in CPython.
    """
    a %= p
    n = p
    symbol = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        # (2/n) = -1 exactly when n = 3 or 5 (mod 8).
        if zeros & 1 and n & 7 in (3, 5):
            symbol = -symbol
        # Reciprocity flips the sign when both are 3 (mod 4).
        if a & n & 2:
            symbol = -symbol
        a, n = n % a, a
    return symbol if n == 1 else 0


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
