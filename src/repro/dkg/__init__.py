"""Distributed key generation protocols.

* :mod:`repro.dkg.dealing` — the one dealing core every protocol below
  runs: deal, complain, respond, agree on the qualified set, combine.
  It owns the rounds, the validating parser for every inbound payload,
  complaint and response bookkeeping, the qualified set and the
  combine into shares, public components and verification keys.
* :mod:`repro.dkg.pedersen_dkg` — the paper's Dist-Keygen (Section 3.1):
  Pedersen's DKG with two-generator (Pedersen) VSS, complaint handling and
  disqualification.  One communication round when everyone behaves.
  Overrides nothing but its broadcast's ``"extra"`` field (Appendix G).
* :mod:`repro.dkg.refresh` — proactive share refresh (Section 3.3):
  re-sharing zero and adding the result to current shares.  Overrides
  the secret it deals, (0, 0), and the public rule W_hat_ik0 = 1.
* :mod:`repro.dkg.reshare` — resharing to a new (t', n') committee
  (signer join/leave) with the public key provably unchanged.
  Overrides the secret (its own share), the public rule (W_hat_ik0 =
  VK_i), the dealer and receiver sets, and the weighing (Lagrange at
  zero over the first t+1 of Q).
* :mod:`repro.dkg.gjkr_dkg` — the Gennaro-Jarecki-Krawczyk-Rabin "new-DKG"
  baseline that guarantees a uniform public key at the cost of an extra
  extraction phase; used for the DKG cost comparison (experiment T4).
  Adds the extraction rounds 3-5.

The DLIN variant (Appendix F) overrides the VSS: dual commitments over
triples (:class:`repro.core.dlin_scheme.DLINDKGPlayer`).
"""

from repro.dkg.dealing import DKGResult, result_keys
from repro.dkg.pedersen_dkg import (
    PedersenDKGPlayer, run_pedersen_dkg, dkg_result_to_keys,
)
from repro.dkg.gjkr_dkg import run_gjkr_dkg
from repro.dkg.refresh import RefreshPlayer, recover_share, run_refresh
from repro.dkg.reshare import ResharePlayer, ReshareResult, run_reshare

__all__ = [
    "PedersenDKGPlayer", "DKGResult", "RefreshPlayer", "ResharePlayer",
    "ReshareResult", "dkg_result_to_keys", "recover_share", "result_keys",
    "run_gjkr_dkg", "run_pedersen_dkg", "run_refresh", "run_reshare",
]
