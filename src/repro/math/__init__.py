"""Algebraic substrate: prime fields, extension towers, polynomials.

This package is self-contained (no third-party dependencies) and provides
everything the curve and protocol layers need:

* :mod:`repro.math.field` — Legendre symbols and square roots mod a prime
  (and a generic `F_p` element class no layer uses).
* :mod:`repro.math.tower` — the BN254 tower `F_p2 / F_p6 / F_p12`.
* :mod:`repro.math.msm` — multi-scalar multiplication and fixed-base tables.
* :mod:`repro.math.polynomial` — polynomials over `Z_p` used by secret sharing.
* :mod:`repro.math.lagrange` — Lagrange coefficients (also "in the exponent").
* :mod:`repro.math.rng` — deterministic randomness helpers for protocols/tests.
"""

from repro.math.field import Fp
from repro.math.polynomial import Polynomial
from repro.math.lagrange import lagrange_coefficients, interpolate_at

__all__ = ["Fp", "Polynomial", "lagrange_coefficients", "interpolate_at"]
