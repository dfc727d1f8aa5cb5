"""A proactively-secure threshold signing service (Section 3.3, packaged).

:class:`ProactiveSigningService` wraps the Section 3 scheme, the Pedersen
DKG and the refresh protocol into the object a deployment would actually
operate:

* ``bootstrap()`` runs the one-round distributed key generation;
* ``sign(message, signers)`` collects non-interactive partial signatures
  from a quorum and combines them (robustly by default);
* ``advance_epoch()`` runs the share-refresh protocol, invalidating every
  previously captured share while keeping the public key;
* ``recover(index)`` restores a lost share from t+1 helpers without ever
  reconstructing the master key (Herzberg et al. style);
* per-epoch bookkeeping records which servers were flagged as corrupted
  so operators can rotate them out between epochs.

The service object *simulates* the server fleet in-process (each server's
share lives in ``self._shares``); in a real deployment each share would
sit on its own machine and ``sign`` would be an RPC fan-out — the
protocol messages and costs are identical, which is what the experiments
measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.core.keys import (
    PrivateKeyShare, PublicKey, Signature, ThresholdParams, VerificationKey,
)
from repro.core.scheme import LJYThresholdScheme
from repro.dkg.pedersen_dkg import dkg_result_to_keys, run_pedersen_dkg
from repro.dkg.refresh import recover_share, run_refresh
from repro.errors import CombineError, ParameterError, ProtocolError
from repro.groups.api import BilinearGroup


@dataclass
class EpochReport:
    """What happened during one epoch (for operator dashboards/tests)."""

    epoch: int
    refresh_rounds: int = 0
    refresh_messages: int = 0
    signatures_issued: int = 0
    flagged_servers: Set[int] = field(default_factory=set)


class ProactiveSigningService:
    """Operational wrapper: DKG + non-interactive signing + refresh."""

    def __init__(self, group: BilinearGroup, t: int, n: int,
                 label: str = "proactive-service", rng=None):
        self.params = ThresholdParams.generate(group, t, n, label=label)
        self.scheme = LJYThresholdScheme(self.params)
        self.group = group
        self.rng = rng
        self.public_key: Optional[PublicKey] = None
        self.verification_keys: Dict[int, VerificationKey] = {}
        self._shares: Dict[int, PrivateKeyShare] = {}
        self.epoch = 0
        self.reports: List[EpochReport] = [EpochReport(epoch=0)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self, adversary=None) -> PublicKey:
        """Run Dist-Keygen; returns the jointly generated public key."""
        if self.public_key is not None:
            raise ProtocolError("service already bootstrapped")
        results, network = run_pedersen_dkg(
            self.group, self.params.g_z, self.params.g_r,
            self.params.t, self.params.n, adversary=adversary, rng=self.rng)
        for index, result in results.items():
            public_key, share, vks = dkg_result_to_keys(self.scheme, result)
            self._shares[index] = share
            self.public_key = public_key
            self.verification_keys = vks
        if self.public_key is None:
            raise ProtocolError("no honest player finished the DKG")
        report = self.reports[-1]
        report.refresh_rounds = network.metrics.communication_rounds
        report.refresh_messages = network.metrics.total_messages
        return self.public_key

    def advance_epoch(self, adversary=None) -> EpochReport:
        """Refresh all live shares; old shares become useless."""
        self._require_ready()
        new_shares, new_vks, network = run_refresh(
            self.group, self.params.g_z, self.params.g_r,
            self.params.t, self.params.n,
            self._shares, self.verification_keys,
            adversary=adversary, rng=self.rng)
        self._shares = new_shares
        self.verification_keys = new_vks
        self.epoch += 1
        report = EpochReport(
            epoch=self.epoch,
            refresh_rounds=network.metrics.communication_rounds,
            refresh_messages=network.metrics.total_messages)
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------
    def sign(self, message: bytes,
             signers: Optional[Iterable[int]] = None,
             robust: bool = True) -> Signature:
        """Collect partial signatures from ``signers`` and combine.

        Servers that contribute an invalid partial signature are flagged
        in the current epoch report (and filtered out when ``robust``).
        """
        self._require_ready()
        if signers is None:
            signers = sorted(self._shares)[: self.params.t + 1]
        partials = self.scheme.share_sign_many(
            [self._shares[index] for index in signers
             if index in self._shares], message)
        for offset in self.scheme.locate_invalid_partials(
                self.public_key, self.verification_keys,
                [(message, partial) for partial in partials]):
            self.reports[-1].flagged_servers.add(partials[offset].index)
        signature = self.scheme.combine(
            self.public_key, self.verification_keys, message, partials,
            verify_shares=robust)
        if not robust and not self.scheme.verify(
                self.public_key, message, signature):
            # Optimistic path failed: retry with filtering.
            signature = self.scheme.combine(
                self.public_key, self.verification_keys, message, partials,
                verify_shares=True)
        self.reports[-1].signatures_issued += 1
        return signature

    def verify(self, message: bytes, signature: Signature) -> bool:
        self._require_ready()
        return self.scheme.verify(self.public_key, message, signature)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def corrupt_share_detected(self, index: int) -> None:
        """Operator marks a server as compromised; its share is dropped
        until :meth:`recover` restores it (typically next epoch)."""
        self._require_ready()
        if index not in self._shares:
            raise ParameterError(f"no live share for server {index}")
        del self._shares[index]
        self.reports[-1].flagged_servers.add(index)

    def recover(self, index: int) -> None:
        """Restore server ``index``'s share from t+1 helpers."""
        self._require_ready()
        helpers = {
            i: share for i, share in self._shares.items() if i != index
        }
        if len(helpers) < self.params.t + 1:
            raise CombineError("not enough helpers to recover the share")
        self._shares[index] = recover_share(self.scheme, index, helpers)

    def live_servers(self) -> List[int]:
        return sorted(self._shares)

    # ------------------------------------------------------------------
    def _require_ready(self) -> None:
        if self.public_key is None:
            raise ProtocolError("bootstrap() the service first")
