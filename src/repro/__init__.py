"""repro — reproduction of Libert, Joye & Yung (PODC 2014).

*Born and Raised Distributively: Fully Distributed Non-Interactive
Adaptively-Secure Threshold Signatures with Short Shares.*

Public API tour
---------------

>>> from repro import get_group, ThresholdParams, LJYThresholdScheme
>>> group = get_group("toy")          # or "bn254" for the real pairing
>>> params = ThresholdParams.generate(group, t=2, n=5)
>>> scheme = LJYThresholdScheme(params)
>>> pk, shares, vks = scheme.dealer_keygen()
>>> partials = [scheme.share_sign(shares[i], b"msg") for i in (1, 3, 5)]
>>> sig = scheme.combine(pk, vks, b"msg", partials)
>>> scheme.verify(pk, b"msg", sig)
True

For the fully distributed path replace ``dealer_keygen`` with
:func:`repro.dkg.run_pedersen_dkg` /
:func:`repro.dkg.dkg_result_to_keys` — see ``examples/quickstart.py``.

:class:`repro.ServiceHandle` bundles params/scheme/keys behind the
task-level entry points (``sign``/``verify`` plus the window-sized batch
paths), and :mod:`repro.service` serves a handle as a long-lived async
signing service with batch-window amortization — see
``examples/signing_service_demo.py``.

The package root loads only what a signer runs.  The other schemes are
imported from their own modules: :mod:`repro.core.standard_model`,
:mod:`repro.core.dlin_scheme` and :mod:`repro.core.aggregation`.
"""

from repro.groups import get_group
from repro.core.keys import (
    PartialSignature, PrivateKeyShare, PublicKey, Signature,
    ThresholdParams, VerificationKey,
)
from repro.core.scheme import LJYThresholdScheme, ServiceHandle
from repro.dkg import run_pedersen_dkg, dkg_result_to_keys, run_refresh

__version__ = "1.0.0"

__all__ = [
    "get_group",
    "ThresholdParams", "PublicKey", "PrivateKeyShare", "VerificationKey",
    "PartialSignature", "Signature",
    "LJYThresholdScheme", "ServiceHandle",
    "run_pedersen_dkg", "dkg_result_to_keys", "run_refresh",
    "__version__",
]
