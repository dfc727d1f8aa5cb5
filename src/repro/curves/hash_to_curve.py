"""Hashing arbitrary messages into G1, G1^n and G2.

The paper models ``H : {0,1}* -> G x G`` as a random oracle (Section 3) and
derives the extra generator ``g_r_hat`` of the public parameters from a
random oracle as well ("it can simply be derived from a random oracle", so
nobody knows its discrete logarithm).  We implement the classic
try-and-increment method with domain separation:

* for G1: hash to an x-coordinate candidate and take the first valid curve
  point, choosing the y whose parity matches one hashed bit (G1 has cofactor
  1, so every curve point is in the subgroup);
* for G2: same over F_p2, followed by cofactor clearing.

Try-and-increment is not constant time, which is irrelevant here: inputs are
public messages.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import List

from repro.curves import bn254
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.math.field import legendre_symbol, sqrt_mod
from repro.math.rng import hash_to_int

_P = bn254.P

#: The twist equation and the F_p2 square root, read once from G2's curve
#: record.
_TWIST = G2Point.curve

#: The one memo of H(M): every scheme's random oracle
#: (``ThresholdParams.hash_message`` and its DLIN, Appendix D and
#: Appendix G counterparts, BLS) hashes through here, keyed by
#: ``(domain, message)``, so a robust Combine's repeated Share-Verify of
#: one message and a window's re-check of it are hits.  Bounded because
#: messages are arbitrary caller input; an entry is a bare point, since
#: ``*`` never grows a comb on a point nobody asked to precompute.
_HASH_G1_CACHE: "OrderedDict[tuple, G1Point]" = OrderedDict()
_HASH_G1_CACHE_LIMIT = 256

#: :func:`hash_to_g1` calls in this process answered by the memo
#: (``g1_hits``) and by try-and-increment (``g1_misses``) — the
#: hashing counterpart of ``PAIRING_COUNTERS``; read deltas, never reset.
HASH_COUNTERS = {"g1_hits": 0, "g1_misses": 0}


def hash_to_g1_uncached(message: bytes,
                        domain: str = "repro:H:G1") -> G1Point:
    """Try-and-increment hashing onto the G1 curve (no memo).

    ``tools/bench_snapshot.py`` uses it so the naive baseline keeps
    paying the hashing the caches now avoid.  About half the candidates
    are non-squares; the Jacobi symbol rejects those for a fraction of
    the square-root exponentiation, so a point costs one ``pow`` and the
    same point comes out as without the pre-test.
    """
    counter = 0
    while True:
        tag = f"{domain}:{counter}"
        x = hash_to_int(tag, message, _P)
        y_squared = (x * x * x + bn254.B) % _P
        if legendre_symbol(y_squared, _P) != -1:
            y = sqrt_mod(y_squared, _P)
            parity = hash_to_int(tag + ":sign", message, 2)
            if (y & 1) != parity:
                y = _P - y
            return G1Point(x, y)
        counter += 1


def hash_to_g1(message: bytes, domain: str = "repro:H:G1") -> G1Point:
    """Try-and-increment hashing onto the G1 curve (memoized)."""
    key = (domain, message)
    hit = _HASH_G1_CACHE.get(key)
    if hit is not None:
        HASH_COUNTERS["g1_hits"] += 1
        _HASH_G1_CACHE.move_to_end(key)
        return hit
    HASH_COUNTERS["g1_misses"] += 1
    point = hash_to_g1_uncached(message, domain)
    _HASH_G1_CACHE[key] = point
    if len(_HASH_G1_CACHE) > _HASH_G1_CACHE_LIMIT:
        _HASH_G1_CACHE.popitem(last=False)
    return point


def hash_to_g1_vector(message: bytes, dimension: int,
                      domain: str = "repro:H:G1vec") -> List[G1Point]:
    """Hash a message to a vector of ``dimension`` independent G1 points.

    This is the paper's ``H : {0,1}* -> G^N`` random oracle (N = 2 for the
    main scheme, N = 3 for the DLIN variant, N = K + 1 for Appendix D.1).
    """
    return [
        hash_to_g1(message, domain=f"{domain}:{k}") for k in range(dimension)
    ]


def hash_to_g2(message: bytes, domain: str = "repro:H:G2") -> G2Point:
    """Try-and-increment onto the twist followed by cofactor clearing."""
    counter = 0
    while True:
        tag = f"{domain}:{counter}"
        x = (
            hash_to_int(tag + ":x0", message, _P),
            hash_to_int(tag + ":x1", message, _P),
        )
        y = _TWIST.sqrt(_TWIST.rhs(x))
        if y is not None:
            parity = hash_to_int(tag + ":sign", message, 2)
            if (y[0] & 1) != parity:
                y = _TWIST.ops.neg(y)
            point = G2Point(x, y).clear_cofactor()
            if not point.is_identity():
                return point
        counter += 1


@lru_cache(maxsize=128)
def derive_generator_g1(label: str) -> G1Point:
    """Nothing-up-my-sleeve G1 generator with unknown discrete log.

    Memoized at module scope: protocol labels form a small fixed set, and
    returning the *same instance* lets its fixed-base table survive
    repeated parameter construction.
    """
    return hash_to_g1(label.encode("utf-8"), domain="repro:params:G1")


@lru_cache(maxsize=128)
def derive_generator_g2(label: str) -> G2Point:
    """Nothing-up-my-sleeve G2 generator (e.g. the paper's g_r_hat).

    Memoized at module scope so repeated ``ThresholdParams`` construction
    reuses one instance — and with it the memoized ``PreparedG2`` line
    coefficients, instead of re-running try-and-increment, cofactor
    clearing and Miller-loop preparation per construction.
    """
    return hash_to_g2(label.encode("utf-8"), domain="repro:params:G2")
