"""BN254 elliptic-curve substrate: groups G1/G2, pairing and hashing.

The paper's schemes are stated over asymmetric bilinear groups
``(G, G_hat, G_T)`` on Barreto-Naehrig curves; this package provides exactly
that, built from scratch:

* :mod:`repro.curves.bn254` — curve constants and generators.
* :mod:`repro.curves.weierstrass` — generic Jacobian point arithmetic.
* :mod:`repro.curves.point` — the one point class of both source groups,
  :class:`~repro.curves.point.CurvePoint`, over a per-group
  :class:`~repro.curves.point.Curve` record (field, GLV endomorphism,
  curve constant, generator, cofactor and encoding).
* :mod:`repro.curves.g1` / :mod:`repro.curves.g2` — the two source
  groups' records, bound in ``G1Point`` and ``G2Point``.
* :mod:`repro.curves.pairing` — optimal ate pairing and multi-pairing.
* :mod:`repro.curves.hash_to_curve` — hashing messages into G1 and G2.
"""

from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.pairing import pairing, multi_pairing

__all__ = ["G1Point", "G2Point", "pairing", "multi_pairing"]
