"""The paper's constructions.

* :mod:`repro.core.scheme` — the main non-interactive adaptively-secure
  threshold signature (Section 3), built on the DP-based one-time LHSPS.
* :mod:`repro.core.dlin_scheme` — the DLIN-based variant (Appendix F).
* :mod:`repro.core.generic_rom` — any one-time LHSPS + random oracle =>
  full signature scheme under K-linear (Appendix D.1).
* :mod:`repro.core.standard_model` — the Groth-Sahai based standard-model
  scheme (Section 4).
* :mod:`repro.core.generic_standard` — generic standard-model construction
  over a symmetric pairing (Appendix D.2).
* :mod:`repro.core.aggregation` — the aggregation-enabled variant
  (Appendix G).

Proactive share refresh (Section 3.3) is :mod:`repro.dkg.refresh`,
reached from a key holder as ``ServiceHandle.refreshed``.
"""

from repro.core.keys import (
    ThresholdParams, PublicKey, PrivateKeyShare, VerificationKey,
    PartialSignature, Signature,
)
from repro.core.scheme import LJYThresholdScheme

__all__ = [
    "ThresholdParams", "PublicKey", "PrivateKeyShare", "VerificationKey",
    "PartialSignature", "Signature", "LJYThresholdScheme",
]
