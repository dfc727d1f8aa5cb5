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

    def __init__(self, sentinel_path, signer_index: Optional[int] = None):
        self.sentinel_path = str(sentinel_path)
        self.signer_index = signer_index

    def __call__(self, shard_id: int, signer_index: int, message: bytes,
                 partial: PartialSignature) -> PartialSignature:
        import os
        if self.signer_index is not None and \
                signer_index != self.signer_index:
            return partial
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


class ChurnFault:
    """Random key-lifecycle churn against a *live* service.

    Not a partial-signature injector: this drives the other axis of
    robustness — epoch transitions and ring resizes fired at arbitrary
    moments while traffic flows.  Each :meth:`step` picks one of:

    * **refresh** — proactive share refresh (new epoch, same committee);
    * **reshare** — rotate one signer out and a fresh index in (the
      committee drifts over time, threshold unchanged);
    * **resize** — re-ring to a random shard count within
      ``[min_shards, max_shards]``.

    Every action is recorded in :attr:`actions` so tests and the smoke
    harness can assert the mix actually exercised all three.
    """

    def __init__(self, rng, min_shards: int = 1, max_shards: int = 8):
        if min_shards < 1 or max_shards < min_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")
        self.rng = rng
        self.min_shards = min_shards
        self.max_shards = max_shards
        #: ``(action, detail)`` pairs, in firing order.
        self.actions = []

    async def step(self, service) -> str:
        """Fire one random lifecycle action against ``service``;
        returns the action name."""
        action = self.rng.choice(["refresh", "reshare", "resize"])
        if action == "refresh":
            await service.refresh(rng=self.rng)
            self.actions.append(("refresh", service.handle.epoch))
        elif action == "reshare":
            params = service.handle.scheme.params
            current = sorted(service.handle.shares)
            leaver = self.rng.choice(current)
            joiner = max(max(current), params.n) + 1
            new_indices = sorted(set(current) - {leaver} | {joiner})
            await service.reshare(params.t, new_indices, rng=self.rng)
            self.actions.append(("reshare", (leaver, joiner)))
        else:
            num_shards = self.rng.randint(self.min_shards, self.max_shards)
            migrated = await service.resize(num_shards)
            self.actions.append(("resize", (num_shards, migrated)))
        return action
