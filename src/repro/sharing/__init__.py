"""Secret sharing substrate: Shamir, Feldman VSS and Pedersen VSS.

These are the building blocks of the paper's distributed key generation:

* :mod:`repro.sharing.shamir` — plain (t, n) Shamir sharing over Z_p.
* :mod:`repro.sharing.feldman` — Feldman's VSS (commitments ``g^{a_l}``):
  a reference dealer whose share check is the one the GJKR baseline
  runs on its Feldman columns through
  :func:`~repro.sharing.pedersen_vss.failing_shares`, on a batch of one.
* :mod:`repro.sharing.pedersen_vss` — Pedersen's two-generator VSS with
  commitments ``g_z^{a_l} g_r^{b_l}``; the broadcast values ``W_hat_ikl``
  of the paper's Dist-Keygen are exactly these commitments.
"""

from repro.sharing.shamir import ShamirSharing, share_secret, reconstruct
from repro.sharing.feldman import FeldmanVSS
from repro.sharing.pedersen_vss import PedersenVSS

__all__ = [
    "ShamirSharing", "share_secret", "reconstruct",
    "FeldmanVSS", "PedersenVSS",
]
