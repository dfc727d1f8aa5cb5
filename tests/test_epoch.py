"""Tests for the live key-lifecycle layer: epoch transitions
(refresh / reshare / retire+recover) through ``begin_epoch``'s
all-shards barrier, live ring resizes with queued-request migration,
worker-tier re-warming (the TCP ``C`` context-push frame), the WAL
epoch guard, and random churn under load.

The invariants every test leans on: a transition never changes the
public key, LJY signatures are deterministic (so a request served
under epoch e or e+1 yields byte-identical signatures), and no request
is ever rejected *because* of a lifecycle event.
"""

import asyncio
import json
import logging
import random

import pytest

from repro.core.scheme import LJYThresholdScheme, ServiceHandle
from repro.serialization import PartialSignJob, SignWindowJob
from repro.service import (
    ChurnFault, CorruptSignerFault, EpochStats, HandshakeError, RemoteWorkerPool,
    ServiceConfig, ServiceError, ShardPool, SigningService,
    StaleEpochError, TransportError, WorkerServer, WriteAheadLog,
)
from repro.service import loadgen
from repro.service.shards import ShardWorker
from repro.service.transport import execute_job
from repro.service.types import (
    PendingRequest, RequestExpiredError, RequestKind, percentile,
)
from repro.service.wal import WalLedger
from repro.serialization import WireCodec


@pytest.fixture
def handle(toy_group):
    return ServiceHandle.dealer(toy_group, 2, 5, rng=random.Random(11))


def run(coroutine):
    return asyncio.run(coroutine)


# ---------------------------------------------------------------------------
# begin_epoch: the all-shards barrier
# ---------------------------------------------------------------------------

class TestBeginEpoch:
    def test_refresh_under_load_completes_everything(self, handle):
        async def scenario():
            service = SigningService(handle, ServiceConfig(
                num_shards=3, max_batch=4, max_wait_ms=1.0))
            async with service:
                before = service.handle.public_key.to_bytes()
                first = await service.sign(b"epoch msg 0")
                tasks = [
                    asyncio.create_task(service.sign(b"epoch msg %d" % i))
                    for i in range(24)
                ]
                pause_ms = await service.refresh(rng=random.Random(21))
                results = await asyncio.gather(*tasks)
                again = await service.sign(b"epoch msg 0")
                after = service.handle.public_key.to_bytes()
                return before, after, first, again, results, pause_ms, \
                    service.stats
        before, after, first, again, results, pause_ms, stats = \
            run(scenario())
        # The master key never moves; signatures are byte-identical
        # across the transition (deterministic signing).
        assert after == before
        assert again.signature.to_bytes() == first.signature.to_bytes()
        for position, result in enumerate(results):
            assert handle.verify(b"epoch msg %d" % position,
                                 result.signature)
        # Zero lifecycle rejections: everything admitted completed.
        assert stats.rejected == 0
        assert stats.completed == len(results) + 2
        assert stats.epochs.epoch == 1
        assert stats.epochs.transitions == dict(
            swap=0, refresh=1, reshare=0, retire=0, recover=0, resize=0)
        assert stats.epochs.pauses_ms and pause_ms >= 0.0

    def test_reshare_rotates_committee_live(self, handle):
        async def scenario():
            service = SigningService(handle, ServiceConfig(num_shards=2))
            async with service:
                await service.reshare(2, (2, 3, 4, 5, 6),
                                      rng=random.Random(22))
                result = await service.sign(b"post-reshare")
                return result, sorted(service.handle.shares), \
                    service.stats.epochs
        result, committee, epochs = run(scenario())
        assert handle.verify(b"post-reshare", result.signature)
        assert committee == [2, 3, 4, 5, 6]
        assert epochs.transitions["reshare"] == 1 and epochs.epoch == 1

    def test_refresh_after_renumbering_reshare_under_load(self, handle):
        # The refresh's zero-sharing DKG runs over the committee's own
        # indices: after a reshare to 2..6 there is no signer 1 to deal
        # to, and the refreshed committee is still 2..6.
        async def scenario():
            service = SigningService(handle, ServiceConfig(
                num_shards=2, max_batch=4, max_wait_ms=1.0))
            async with service:
                before = service.handle.public_key.to_bytes()
                first = await service.sign(b"renumbered 0")
                tasks = [asyncio.create_task(
                    service.sign(b"renumbered %d" % i)) for i in range(24)]
                await service.reshare(2, (2, 3, 4, 5, 6),
                                      rng=random.Random(23))
                await service.refresh(rng=random.Random(24))
                results = await asyncio.gather(*tasks)
                again = await service.sign(b"renumbered 0")
                return (before, service.handle.public_key.to_bytes(),
                        first, again, results,
                        sorted(service.handle.shares), service.stats)
        before, after, first, again, results, committee, stats = \
            run(scenario())
        assert after == before
        assert again.signature.to_bytes() == first.signature.to_bytes()
        for position, result in enumerate(results):
            assert handle.verify(b"renumbered %d" % position,
                                 result.signature)
        assert committee == [2, 3, 4, 5, 6]
        assert stats.rejected == 0
        assert stats.completed == len(results) + 2
        assert stats.epochs.transitions["reshare"] == 1
        assert stats.epochs.transitions["refresh"] == 1
        assert stats.epochs.epoch == 2

    def test_retire_then_recover_signer_signs_next_window(self, handle):
        # One shard => one quorum, rotation 0: signers (1, 2, 3).  After
        # retiring signer 3 the quorum re-forms without it; after
        # recovery (t+1 helpers re-derive the share) the very next
        # window is signed by the recovered player again.
        async def scenario():
            service = SigningService(handle, ServiceConfig(num_shards=1))
            async with service:
                quorum_before = list(service._pool.workers[0].quorum)
                await service.retire_signer(3)
                quorum_without = list(service._pool.workers[0].quorum)
                mid = await service.sign(b"while retired")
                await service.recover_signer(3)
                quorum_after = list(service._pool.workers[0].quorum)
                result = await service.sign(b"after recovery")
                return (quorum_before, quorum_without, quorum_after,
                        mid, result, service.stats.epochs)
        before, without, after, mid, result, epochs = run(scenario())
        assert 3 in before and 3 not in without and 3 in after
        assert handle.verify(b"while retired", mid.signature)
        assert handle.verify(b"after recovery", result.signature)
        assert epochs.transitions["retire"] == epochs.transitions["recover"] == 1

    def test_rejects_wrong_epoch_step_and_changed_key(self, handle,
                                                     toy_group):
        async def scenario():
            service = SigningService(handle, ServiceConfig(num_shards=1))
            async with service:
                same_epoch = ServiceHandle(
                    handle.scheme, handle.public_key, handle.shares,
                    handle.verification_keys, epoch=0)
                with pytest.raises(ServiceError):
                    await service.begin_epoch(same_epoch)
                stranger = ServiceHandle.dealer(
                    toy_group, 2, 5, rng=random.Random(99))
                imposter = ServiceHandle(
                    stranger.scheme, stranger.public_key, stranger.shares,
                    stranger.verification_keys, epoch=1)
                with pytest.raises(ServiceError):
                    await service.begin_epoch(imposter)
                return service.stats.epochs.transitions
        assert sum(run(scenario()).values()) == 0

    def test_rejects_when_not_running(self, handle):
        async def scenario():
            service = SigningService(handle)
            with pytest.raises(ServiceError):
                await service.begin_epoch(
                    handle.refreshed(rng=random.Random(5)))
        run(scenario())

    def test_refresh_derives_the_handle_before_the_barrier(
            self, handle, monkeypatch):
        """The refresh DKG runs outside the pause: ``refreshed`` has
        returned before ``pause_all`` is entered, so shards are held
        for the swap only."""
        calls = []
        refreshed, pause_all = ServiceHandle.refreshed, ShardPool.pause_all

        def spy_refreshed(self, **kwargs):
            calls.append("refreshed: enter")
            new_handle = refreshed(self, **kwargs)
            calls.append("refreshed: return")
            return new_handle

        async def spy_pause_all(self):
            calls.append("pause_all: enter")
            return await pause_all(self)

        monkeypatch.setattr(ServiceHandle, "refreshed", spy_refreshed)
        monkeypatch.setattr(ShardPool, "pause_all", spy_pause_all)

        async def scenario():
            config = ServiceConfig(num_shards=2)
            async with SigningService(handle, config) as service:
                await service.refresh(rng=random.Random(21))

        run(scenario())
        assert calls == [
            "refreshed: enter", "refreshed: return", "pause_all: enter"]

    def test_every_transition_is_one_json_line(self, handle, caplog):
        """Each transition, resize included, logs one ``epoch_transition``
        record; ``derive_ms`` is the time spent deriving the new handle
        (null for a caller-supplied one, and for a resize), and
        ``EpochStats.derive_ms`` holds one entry per derived transition."""
        async def scenario():
            config = ServiceConfig(num_shards=1)
            async with SigningService(handle, config) as service:
                await service.refresh(rng=random.Random(21))
                await service.retire_signer(3)
                await service.recover_signer(3)
                await service.begin_epoch(
                    service.handle.refreshed(rng=random.Random(23)))
                await service.reshare(2, (2, 3, 4, 5, 6),
                                      rng=random.Random(22))
                await service.resize(2)
                return service.stats.epochs

        with caplog.at_level(logging.INFO, logger="repro.service.frontend"):
            epochs = run(scenario())
        lines = [json.loads(record.getMessage())
                 for record in caplog.records
                 if record.name == "repro.service.frontend"]
        assert [line["kind"] for line in lines] == [
            "refresh", "retire", "recover", "swap", "reshare", "resize"]
        assert [line["epoch"] for line in lines] == [1, 2, 3, 4, 5, 5]
        for line in lines:
            assert set(line) == {"event", "epoch", "kind", "pause_ms",
                                 "derive_ms", "carried"}
            assert line["event"] == "epoch_transition"
            assert line["pause_ms"] >= 0.0 and line["carried"] >= 0
        derived = [line for line in lines if line["derive_ms"] is not None]
        assert [line["kind"] for line in derived] == [
            "refresh", "retire", "recover", "reshare"]
        assert [round(ms, 3) for ms in epochs.derive_ms] == [
            line["derive_ms"] for line in derived]
        assert len(epochs.pauses_ms) == 6


# ---------------------------------------------------------------------------
# Live resize: queued-request migration
# ---------------------------------------------------------------------------

def _queued_request(message: bytes, loop) -> PendingRequest:
    return PendingRequest(kind=RequestKind.SIGN, message=message,
                          enqueued_at=loop.time(),
                          future=loop.create_future())


class TestResize:
    def _pool(self, handle, num_shards, queue_depth=64):
        return ShardPool(handle, num_shards, max_batch=4, max_wait_ms=1.0,
                         queue_depth=queue_depth)

    def test_shrink_migrates_every_queued_request(self, handle):
        async def scenario():
            loop = asyncio.get_running_loop()
            pool = self._pool(handle, 4)
            messages = [b"resize %d" % i for i in range(32)]
            sources = {}
            for message in messages:
                worker = pool.worker_for(message)
                sources[message] = worker.shard_id
                worker.queue.put_nowait(_queued_request(message, loop))
            migrated = await pool.resize(2)
            return pool, sources, migrated
        pool, sources, migrated = run(scenario())
        assert sorted(pool.workers) == [0, 1]
        # Nothing dropped: every request is queued on its new ring home.
        landed = {}
        for shard_id, worker in pool.workers.items():
            while not worker.queue.empty():
                landed[worker.queue.get_nowait().message] = shard_id
        assert len(landed) == len(sources)
        moved = sum(1 for message, shard in landed.items()
                    if sources[message] != shard)
        assert migrated == moved > 0
        assert sum(w.stats.migrated for w in pool.workers.values()) \
            == migrated
        for message, shard in landed.items():
            assert pool.ring.shard_for(message) == shard

    def test_grow_keeps_unmoved_requests_in_place(self, handle):
        async def scenario():
            loop = asyncio.get_running_loop()
            pool = self._pool(handle, 2)
            for i in range(16):
                message = b"grow %d" % i
                pool.worker_for(message).queue.put_nowait(
                    _queued_request(message, loop))
            migrated = await pool.resize(6)
            return pool, migrated
        pool, migrated = run(scenario())
        assert sorted(pool.workers) == list(range(6))
        total = sum(w.queue.qsize() for w in pool.workers.values())
        assert total == 16
        assert 0 < migrated <= 16

    def test_overflowing_destination_grows_its_queue(self, handle):
        async def scenario():
            loop = asyncio.get_running_loop()
            pool = self._pool(handle, 4, queue_depth=4)
            count = 0
            for i in range(64):
                message = b"deep %d" % i
                worker = pool.worker_for(message)
                if worker.queue.full():
                    continue
                worker.queue.put_nowait(_queued_request(message, loop))
                count += 1
            await pool.resize(1)
            return pool, count
        pool, count = run(scenario())
        # Everything squeezed into the single surviving shard, past its
        # configured depth (migration must not shed admitted requests).
        assert pool.workers[0].queue.qsize() == count > 4
        assert pool.workers[0].accumulator.queue \
            is pool.workers[0].queue

    def test_resize_under_load_completes_everything(self, handle):
        async def scenario():
            service = SigningService(handle, ServiceConfig(
                num_shards=4, max_batch=4, max_wait_ms=1.0))
            async with service:
                tasks = [
                    asyncio.create_task(service.sign(b"live %d" % i))
                    for i in range(24)
                ]
                await service.resize(6)
                first_half = await asyncio.gather(*tasks)
                tasks = [
                    asyncio.create_task(service.sign(b"live b %d" % i))
                    for i in range(24)
                ]
                await service.resize(2)
                second_half = await asyncio.gather(*tasks)
                return first_half + second_half, service.stats
        results, stats = run(scenario())
        for result in results:
            assert handle.verify(result.message, result.signature)
        assert stats.rejected == 0 and stats.failed == 0
        assert stats.epochs.transitions["resize"] == 2
        assert len(stats.epochs.pauses_ms) == 2

    def test_rejects_zero_shards(self, handle):
        async def scenario():
            pool = self._pool(handle, 2)
            with pytest.raises(ValueError):
                await pool.resize(0)
        run(scenario())


# ---------------------------------------------------------------------------
# Share-Sign at arrival vs. the lifecycle barrier
# ---------------------------------------------------------------------------

class _RecordingForger(CorruptSignerFault):
    """Signer 1 forges everywhere; remembers the forged objects."""

    def __init__(self):
        super().__init__(signer_index=1)
        self.forged = []

    def __call__(self, shard_id, signer_index, message, partial):
        out = super().__call__(shard_id, signer_index, message, partial)
        if out is not partial:
            self.forged.append(out)
        return out


class TestPresignedFence:
    """A shard Share-Signs a request while its window forms — outside
    the lifecycle barrier.  Every scenario holds a window open (the
    timer is a minute, the window one short of full) until ``HELD``
    requests are pre-signed, fires a lifecycle event, and only then lets
    the window close: partials made under a handle or quorum the shard
    no longer holds must be dropped and re-made, never combined."""

    HELD = 5

    @pytest.fixture
    def spies(self, monkeypatch):
        """``signed``: every message ``partials_with_faults`` signs, as
        (epoch, signers, message); ``combined``: every window handed to
        ``combine_window`` as [(message, partials)]."""
        signed, combined = [], []
        sign = ServiceHandle.partials_with_faults
        combine = LJYThresholdScheme.combine_window

        def spy_sign(self, messages, signers, **kwargs):
            signed.extend((self.epoch, tuple(signers), message)
                          for message in messages)
            return sign(self, messages, signers, **kwargs)

        def spy_combine(self, public_key, vks, windows, **kwargs):
            combined.append([(m, list(p)) for m, p in windows])
            return combine(self, public_key, vks, windows, **kwargs)

        monkeypatch.setattr(ServiceHandle, "partials_with_faults", spy_sign)
        monkeypatch.setattr(LJYThresholdScheme, "combine_window",
                            spy_combine)
        return signed, combined

    def _hold(self, handle, spies, event, forger=None, last=True,
              **config):
        """Returns (outcomes, service, pk_before): ``HELD`` requests
        pre-signed in a held-open window, ``await event(service)``, then
        (``last``) the request that fills the window."""
        signed, _ = spies
        config = {"num_shards": 1, "max_batch": self.HELD + 1, **config}

        async def scenario():
            service = SigningService(handle, ServiceConfig(
                max_wait_ms=60_000.0, fault_injector=forger, **config))
            async with service:
                before = service.handle.public_key.to_bytes()
                tasks = [
                    asyncio.create_task(service.sign(b"held %d" % i))
                    for i in range(self.HELD)]
                while len(signed) < self.HELD:
                    await asyncio.sleep(0.001)
                await event(service)
                if last:
                    tasks.append(asyncio.create_task(
                        service.sign(b"held last")))
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True), 20)
                return outcomes, service, before
        return run(scenario())

    def _check(self, handle, spies, held, forger=None):
        """The invariants of every scenario whose requests all live."""
        _, combined = spies
        outcomes, service, before = held
        assert service.handle.public_key.to_bytes() == before
        for outcome in outcomes:
            assert not isinstance(outcome, Exception), outcome
            assert handle.verify(outcome.message, outcome.signature)
        delivered = [partials for window in combined
                     for _, partials in window]
        # Only signers of the ring the shard holds at close contribute.
        assert {p.index for partials in delivered for p in partials} \
            <= set(service.handle.shares)
        forged = forger.forged if forger is not None else []
        poisoned = sum(
            1 for partials in delivered
            if any(p is f for p in partials for f in forged))
        shards = service.stats.shards.values()
        assert sum(s.faults_localized for s in shards) == poisoned
        assert service.stats.failed == 0

    TRANSITIONS = {
        "refresh": lambda service: service.refresh(rng=random.Random(5)),
        "reshare-out": lambda service: service.reshare(
            2, (2, 3, 4, 5, 6), rng=random.Random(6)),
        "reshare-in": lambda service: service.reshare(
            2, (1, 2, 3, 4, 6), rng=random.Random(7)),
        "retire": lambda service: service.retire_signer(3),
    }

    @pytest.mark.parametrize("forging", [False, True])
    @pytest.mark.parametrize("transition", sorted(TRANSITIONS))
    def test_epoch_swap_drops_presigned_partials(self, handle, spies,
                                                 transition, forging):
        forger = _RecordingForger() if forging else None
        held = self._hold(handle, spies, self.TRANSITIONS[transition],
                          forger=forger)
        self._check(handle, spies, held, forger)
        signed, _ = spies
        service = held[1]
        assert service.handle.epoch == 1
        # Pre-signed under epoch 0, every one re-made under epoch 1.
        quorum = tuple(service.handle.quorum(rotation=0))
        for position in range(self.HELD):
            message = b"held %d" % position
            assert (0, (1, 2, 3), message) in signed
            assert (1, quorum, message) in signed
        assert service.stats.shards[0].presigned == 0
        assert len(held[0]) == self.HELD + 1
        if forging and 1 in quorum:
            assert all(outcome.fallback for outcome in held[0])

    def test_without_a_transition_the_presigned_partials_are_used(
            self, handle, spies):
        async def nothing(service):
            pass
        forger = _RecordingForger()
        held = self._hold(handle, spies, nothing, forger=forger)
        self._check(handle, spies, held, forger)
        signed, combined = spies
        assert held[1].stats.shards[0].presigned == self.HELD
        # One Share-Sign per request (the last at close), one window.
        assert len([s for s in signed if s[1] == (1, 2, 3)]) \
            == self.HELD + 1
        assert len(combined) == 1

    @pytest.mark.parametrize("transition, forging",
                             [("refresh", True), ("retire", False)])
    def test_mutant_that_skips_the_fence_is_caught(
            self, handle, spies, monkeypatch, transition, forging):
        """The same scenarios with the fence disabled.  Refresh: signer
        1's forgery sends the window down the robust path, where the
        honest old-epoch partials of signers 2 and 3 are checked against
        new-epoch verification keys, read as forged, and the requests
        fail.  Retire: the retired signer's partial is combined."""
        monkeypatch.setattr(
            ShardWorker, "_fence_holds",
            lambda self, request: request.presigned is not None)
        forger = _RecordingForger() if forging else None
        held = self._hold(handle, spies, self.TRANSITIONS[transition],
                          forger=forger)
        with pytest.raises(AssertionError):
            self._check(handle, spies, held, forger)

    def test_resize_mid_window_resigns_under_the_new_shards_quorum(
            self, handle, spies, monkeypatch):
        # Two shards hold HELD pre-signed requests between them; the
        # shrink puts shard 1's window back and migrates it into shard
        # 0's, which that fills: it closes without pre-signing again, so
        # the migrated requests arrive with shard 1's partials.
        forger = _RecordingForger()
        migrated = []

        async def shrink(service):
            migrated.append(await service.resize(1))

        held = self._hold(handle, spies, shrink, forger=forger, last=False,
                          num_shards=2, max_batch=self.HELD)
        self._check(handle, spies, held, forger)
        signed, combined = spies
        stats = held[1].stats.shards[0]
        assert 0 < migrated[0] < self.HELD
        assert stats.migrated == migrated[0]
        assert stats.presigned == self.HELD - migrated[0]
        # Shard 1's quorum (2, 3, 4) pre-signed the migrated requests;
        # shard 0 combined only its own quorum's partials, forger and all.
        assert sum(1 for s in signed if s[1] == (2, 3, 4)) == migrated[0]
        assert len(combined) == 1 and len(combined[0]) == self.HELD
        assert all(outcome.fallback for outcome in held[0])

        monkeypatch.setattr(
            ShardWorker, "_fence_holds",
            lambda self, request: request.presigned is not None)
        del signed[:], combined[:]
        mutant = self._hold(handle, spies, shrink,
                            forger=_RecordingForger(), last=False,
                            num_shards=2, max_batch=self.HELD)
        assert not all(outcome.fallback for outcome in mutant[0])

    def test_expiry_drops_the_partials_with_the_request(self, handle,
                                                        spies):
        async def outlive_the_deadline(service):
            await asyncio.sleep(0.08)

        outcomes, service, _ = self._hold(
            handle, spies, outlive_the_deadline, request_deadline_s=0.05)
        signed, combined = spies
        assert [type(o) for o in outcomes[:-1]] == \
            [RequestExpiredError] * self.HELD
        assert handle.verify(b"held last", outcomes[-1].signature)
        stats = service.stats.shards[0]
        assert stats.expired == self.HELD and stats.presigned == 0
        assert [[m for m, _ in window] for window in combined] == \
            [[b"held last"]]


    def test_a_remembered_convict_changes_no_bytes(self, handle, spies):
        """The order the robust path looks in is not an input to what
        it returns: with signer 1 already convicted (and checked ahead
        of the window), the pre-signed partials are used as they are
        and combine to the bytes a clean handle signs."""
        forger = _RecordingForger()
        handle.process_sign_window([b"earlier"], fault_injector=forger)
        assert handle.suspects == (1,)
        signed, combined = spies
        del signed[:], combined[:]

        async def nothing(service):
            pass
        held = self._hold(handle, spies, nothing, forger=forger)
        self._check(handle, spies, held, forger)
        assert held[1].stats.shards[0].presigned == self.HELD
        assert held[1].handle.suspects == (1,)
        clean = ServiceHandle(handle.scheme, handle.public_key,
                              handle.shares, handle.verification_keys)
        for outcome in held[0]:
            assert outcome.fallback
            assert outcome.signature.to_bytes() == \
                clean.sign(outcome.message).to_bytes()


class TestSuspectsFence:
    """Who forged is remembered per handle, so per epoch: a lifecycle
    step is the paper's recovery from corruption and starts clean."""

    @staticmethod
    def _convict(handle, signer):
        outcome = handle.process_sign_window(
            [b"convicting"], quorum=[signer, 3, 5],
            fault_injector=CorruptSignerFault(signer_index=signer))
        assert outcome.flagged == (0,) and outcome.failures == ()
        assert handle.suspects == (signer,)

    def test_the_convict_does_not_survive_a_lifecycle_step(self, handle):
        self._convict(handle, 2)
        retired = handle.without_signer(4)
        assert retired.suspects == ()
        self._convict(retired, 2)
        for successor in (
                handle.refreshed(rng=random.Random(5)),
                handle.reshared(2, (2, 3, 4, 5, 6), rng=random.Random(6)),
                retired.with_recovered(4)):
            assert successor.suspects == ()
            assert successor.epoch > handle.epoch
            assert successor.public_key.to_bytes() == \
                handle.public_key.to_bytes()
        # The handles left behind keep theirs: nothing is shared.
        assert handle.suspects == retired.suspects == (2,)

    def test_an_index_that_left_the_ring_is_never_looked_up(self, handle):
        """Even a stale ``Suspects`` handed to ``combine_window`` only
        orders the signers with partials in use: signer 1, convicted
        and hot but resharded out, costs no lookup of a key that is
        gone."""
        from repro.core.scheme import Suspects

        class Watched(dict):
            looked_up = []

            def get(self, key, default=None):
                self.looked_up.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                self.looked_up.append(key)
                return super().__getitem__(key)

        self._convict(handle, 1)
        successor = handle.reshared(2, (2, 3, 4, 5, 6),
                                    rng=random.Random(6))
        assert 1 not in successor.verification_keys
        stale = Suspects(epoch=1)
        stale.last, stale.hot = 1, True
        message = b"after the reshare"
        partials, = successor.partials_with_faults(
            [message], (2, 3, 4),
            fault_injector=CorruptSignerFault(signer_index=3))
        vks = Watched(successor.verification_keys)
        signatures, flagged = successor.scheme.combine_window(
            successor.public_key, vks, [(message, partials)], suspects=stale,
            top_up=lambda message, asked, missing:
                successor.partials_for(message, [5][:missing]))
        assert flagged == [0] and stale.last == 3
        assert signatures[0].to_bytes() == \
            handle.sign(message).to_bytes()
        assert vks.looked_up and 1 not in vks.looked_up


# ---------------------------------------------------------------------------
# Worker-tier re-warming
# ---------------------------------------------------------------------------

class TestWorkerRewarm:
    def test_stale_epoch_job_is_refused(self, handle):
        fresh = handle.refreshed(rng=random.Random(31))
        job = SignWindowJob(shard_id=0, epoch=0, messages=(b"stale",),
                            quorum=(1, 2, 3))
        with pytest.raises(StaleEpochError) as excinfo:
            execute_job(fresh, job)
        assert excinfo.value.job_epoch == 0
        assert excinfo.value.handle_epoch == 1

    def test_remote_worker_takes_context_push(self, handle):
        async def scenario():
            server = await WorkerServer(handle).start()
            pool = RemoteWorkerPool(handle, [server.address])
            pool.start()
            try:
                await pool.run_job(PartialSignJob(
                    shard_id=0, epoch=0, message=b"tcp epoch",
                    signers=(1, 2, 3)))
                fresh = handle.refreshed(rng=random.Random(51))
                await pool.update_handle(fresh)
                await pool.run_job(PartialSignJob(
                    shard_id=0, epoch=1, message=b"tcp epoch",
                    signers=(1, 2, 3)))
                # The same push through a running service: a live
                # refresh re-warms the worker inside the barrier and
                # the next window is served under the new epoch.
                service = SigningService(fresh, ServiceConfig(
                    num_shards=2, max_batch=4, max_wait_ms=1.0,
                    remote_workers=[server.address]))
                async with service:
                    first = await service.sign(b"tcp epoch")
                    await service.refresh(rng=random.Random(52))
                    again = await service.sign(b"tcp epoch")
                return pool.stats, service.stats, first, again, server
            finally:
                await pool.aclose()
                await server.aclose()
        stats, live, first, again, server = run(scenario())
        # Partials change with the shares, so the pool-level check is
        # both jobs served, one rewarm counted; the combined signature
        # is byte-identical across the refresh (same master key), and
        # the server ends up holding the newest epoch.
        assert stats.jobs == 2 and stats.rewarms == 1
        assert again.signature.to_bytes() == first.signature.to_bytes()
        assert live.workers.rewarms == 1 and live.failed == 0
        assert server._handle.epoch == 2

    def test_remote_worker_refuses_stale_push(self, handle):
        async def scenario():
            fresh = handle.refreshed(rng=random.Random(61))
            server = await WorkerServer(fresh).start()
            pool = RemoteWorkerPool(fresh, [server.address])
            pool.start()
            try:
                # Pushing epoch 1 onto a worker already at epoch 1:
                # refused (must be strictly newer), endpoint
                # quarantined, pool raises — nothing silently served.
                with pytest.raises(TransportError):
                    await pool.update_handle(
                        handle.refreshed(rng=random.Random(62)))
                return pool._endpoints[0].misprovisioned
            finally:
                await pool.aclose()
                await server.aclose()
        assert run(scenario()) is not None


# ---------------------------------------------------------------------------
# WAL: epochs are durable, stale-epoch restarts are refused
# ---------------------------------------------------------------------------

class TestWalEpoch:
    def test_stale_restart_refused_then_new_context_replays(
            self, handle, tmp_path):
        wal_path = tmp_path / "epoch.wal"
        fresh = handle.refreshed(rng=random.Random(71))

        codec = WireCodec(handle.scheme.group)
        wal = WriteAheadLog.open(wal_path, codec)
        wal.append_admit(b"carried across the crash", epoch=1)
        wal.sync()
        wal.close()

        async def stale_start():
            service = SigningService(handle, ServiceConfig(
                num_shards=1, wal_path=wal_path))
            with pytest.raises(ServiceError):
                await service.start()
            assert not service.running

        async def fresh_start():
            service = SigningService(fresh, ServiceConfig(
                num_shards=1, wal_path=wal_path))
            async with service:
                recovered = service.stats.recovered
            return recovered

        run(stale_start())
        assert run(fresh_start()) == 1
        # The obligation settled once, under the unchanged public key.
        ledger = WalLedger.read(wal_path, codec)
        assert list(ledger.settlements) == [1]
        assert ledger.violations(handle.verify) == []

    def test_admits_carry_the_current_epoch(self, handle, tmp_path):
        wal_path = tmp_path / "live.wal"

        async def scenario():
            service = SigningService(handle, ServiceConfig(
                num_shards=1, wal_path=wal_path))
            async with service:
                await service.sign(b"epoch zero")
                await service.refresh(rng=random.Random(81))
                await service.sign(b"epoch one")
                return service.wal.max_epoch_seen
        assert run(scenario()) == 1


# ---------------------------------------------------------------------------
# Chaos: random lifecycle churn under load
# ---------------------------------------------------------------------------

class TestChurn:
    def test_churn_under_load_completes_everything(self, handle):
        async def scenario():
            rng = random.Random(91)
            churn = ChurnFault(rng, min_shards=1, max_shards=5)
            service = SigningService(handle, ServiceConfig(
                num_shards=3, max_batch=4, max_wait_ms=1.0))
            async with service:
                before = service.handle.public_key.to_bytes()
                results = []
                for round_no in range(6):
                    tasks = [
                        asyncio.create_task(service.sign(
                            b"churn %d/%d" % (round_no, i)))
                        for i in range(8)
                    ]
                    await churn.step(service)
                    results.extend(await asyncio.gather(*tasks))
                after = service.handle.public_key.to_bytes()
                return before, after, results, churn, service.stats
        before, after, results, churn, stats = run(scenario())
        assert after == before
        for result in results:
            assert handle.verify(result.message, result.signature)
        assert stats.rejected == 0 and stats.failed == 0
        assert len(churn.actions) == 6
        # Six seeded steps cover more than one action kind.
        assert len({action for action, _ in churn.actions}) >= 2

    def test_churn_validates_bounds(self):
        with pytest.raises(ValueError):
            ChurnFault(random.Random(1), min_shards=0)
        with pytest.raises(ValueError):
            ChurnFault(random.Random(1), min_shards=4, max_shards=2)


# ---------------------------------------------------------------------------
# EpochStats plumbing
# ---------------------------------------------------------------------------

class TestEpochStats:
    def test_percentiles(self):
        epochs = EpochStats()
        assert epochs.pause_p99_ms == 0.0
        epochs.pauses_ms.extend(float(v) for v in range(1, 101))
        assert epochs.pause_p99_ms == 99.0
        # Nearest rank is a ceiling, not a rounding: p99 of 150 is the
        # 149th sample (148.5 rounds half-to-even to 148), p50 of 5 the
        # 3rd — one helper, shared with the load generator.
        assert EpochStats(pauses_ms=[float(v) for v in range(1, 151)]
                          ).pause_p99_ms == 149.0
        five = [float(v) for v in range(1, 6)]
        assert EpochStats(pauses_ms=five).pause_p99_ms == 5.0
        assert percentile(five, 50) == 3.0
        assert loadgen.percentile is percentile
