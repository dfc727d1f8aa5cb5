"""Randomness helpers.

Protocols accept an optional ``rng`` (a ``random.Random``) for what a
transcript or workload pins — keys, dealings, refresh and reshare — so
that tests and benchmarks are reproducible; when it is ``None`` the
library falls back to ``secrets``.  Batching coins are not among them:
:func:`batch_coins` draws from ``secrets`` alone, on every tier, since
its soundness bound holds only against coins no signer can predict.
``hash_to_int`` is the only random-oracle-style primitive shared across
modules.
"""

from __future__ import annotations

import hashlib
import secrets


def random_scalar(modulus: int, rng=None) -> int:
    """Uniform scalar in [0, modulus); deterministic when ``rng`` is given."""
    if rng is None:
        return secrets.randbelow(modulus)
    return rng.randrange(modulus)


def random_nonzero_scalar(modulus: int, rng=None) -> int:
    """Uniform scalar in [1, modulus)."""
    while True:
        value = random_scalar(modulus, rng)
        if value != 0:
            return value


def batch_coins(count: int) -> list:
    """Small-exponent batching coins, uniform over [1, 2^64] — 2^64
    nonzero values, so a batch holding a false item passes with
    probability at most 2^-64.  Drawn from ``secrets`` by the verifier
    once the items they weigh are fixed, and never reused for another
    check."""
    return [secrets.randbelow(1 << 64) + 1 for _ in range(count)]


def hash_to_int(domain: str, data: bytes, modulus: int) -> int:
    """Hash ``data`` into [0, modulus) with a domain-separation tag.

    Implements the standard expand-then-reduce construction: enough SHA-256
    blocks are concatenated to make the modulo bias negligible (128 extra
    bits).
    """
    target_bits = modulus.bit_length() + 128
    blocks = (target_bits + 255) // 256
    output = b""
    for counter in range(blocks):
        h = hashlib.sha256()
        h.update(domain.encode("utf-8"))
        h.update(counter.to_bytes(4, "big"))
        h.update(data)
        output += h.digest()
    return int.from_bytes(output, "big") % modulus


def hash_bytes(domain: str, data: bytes, length: int = 32) -> bytes:
    """Domain-separated variable-length hash (SHA-256 in counter mode)."""
    output = b""
    counter = 0
    while len(output) < length:
        h = hashlib.sha256()
        h.update(domain.encode("utf-8"))
        h.update(counter.to_bytes(4, "big"))
        h.update(data)
        output += h.digest()
        counter += 1
    return output[:length]
