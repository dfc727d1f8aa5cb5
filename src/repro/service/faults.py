"""Failure injection for the signing service.

A fault injector is any callable

    inject(shard_id, signer_index, message, partial) -> partial

applied to every partial signature a shard worker produces.  Returning a
different :class:`~repro.core.keys.PartialSignature` models a
compromised or buggy signer/shard; returning the input unchanged models
honesty.  The service applies the injector to the partials a request
tops up with too — robustness must come from checking the window,
going signer by signer over the partials in use
(``locate_invalid_partials``, last convicted signer first), asking
further signers for exactly the missing ones and checking the window
again, not from the fault conveniently disappearing on retry.  Who
was convicted is the combiner's memory
(:attr:`~repro.core.scheme.ServiceHandle.suspects`), not the
injector's: a forger that falls silent costs one clean round, once.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.core.keys import PartialSignature


class WorkerCrashFault:
    """Kill the executing worker *process* the first time it signs
    (``remote_worker --crash-sentinel`` installs it).

    Models a worker OOM-killed or segfaulting mid-window: the process
    dies hard (``os._exit``, no exception propagation, no cleanup), its
    connections drop, and
    :class:`~repro.service.transport.RemoteWorkerPool` must detect the
    crash and resubmit the window to another (or the restarted) worker.

    Crash-once bookkeeping cannot live in instance state — the
    resubmitted job lands in a *different* process with its own copy of
    the fault.  A sentinel file marks "already crashed" across
    processes instead: the first worker to fire creates it and dies;
    the retried job sees it and proceeds honestly.
    """

    def __init__(self, sentinel_path):
        self.sentinel_path = str(sentinel_path)

    def __call__(self, shard_id: int, signer_index: int, message: bytes,
                 partial: PartialSignature) -> PartialSignature:
        import os
        if not os.path.exists(self.sentinel_path):
            with open(self.sentinel_path, "w") as sentinel:
                sentinel.write("crashed\n")
            os._exit(1)
        return partial


class CorruptSignerFault:
    """Forge the partial signatures of one signer on one shard.

    The forged partial is ``(z^2, r)`` — a well-formed group element
    pair that fails Share-Verify, i.e. an adversarial contribution
    rather than a transport error.  ``shard_id=None`` corrupts the
    signer on every shard (a compromised server); ``messages`` restricts
    the fault to specific messages (a targeted attack).
    """

    def __init__(self, signer_index: int, shard_id: Optional[int] = None,
                 messages: Optional[Set[bytes]] = None):
        self.signer_index = signer_index
        self.shard_id = shard_id
        self.messages = messages
        #: Every (shard, message) pair actually corrupted, for tests.
        self.injected: Set[Tuple[int, bytes]] = set()

    def __call__(self, shard_id: int, signer_index: int, message: bytes,
                 partial: PartialSignature) -> PartialSignature:
        if signer_index != self.signer_index:
            return partial
        if self.shard_id is not None and shard_id != self.shard_id:
            return partial
        if self.messages is not None and message not in self.messages:
            return partial
        self.injected.add((shard_id, message))
        return PartialSignature(
            index=partial.index, z=partial.z * partial.z, r=partial.r)

