"""Tests for the async signing service (frontend, accumulator, shards,
load generator, fault injection) and the ServiceHandle facade.

Protocol logic runs on the toy backend; one end-to-end test (marked
``bn254``) exercises the real pairing.  No asyncio test plugin is
assumed: each test drives its own event loop via ``asyncio.run``.
"""

import asyncio
import random
import socket
import time

import pytest

from repro.core.keys import PartialSignature
from repro.core.scheme import ServiceHandle
from repro.service import (
    BatchAccumulator, CorruptSignerFault, HashRing, LoadGenerator,
    ServiceConfig, ServiceClosedError, ServiceOverloadedError,
    SigningService,
)


@pytest.fixture
def handle(toy_group):
    return ServiceHandle.dealer(toy_group, 2, 5, rng=random.Random(11))


def run(coroutine):
    return asyncio.run(coroutine)


# ---------------------------------------------------------------------------
# ServiceHandle facade
# ---------------------------------------------------------------------------

class TestServiceHandle:
    def test_sign_verify_roundtrip(self, handle):
        from repro.errors import CombineError
        signature = handle.sign(b"facade message")
        assert handle.verify(b"facade message", signature)
        assert not handle.verify(b"other message", signature)
        # Any t+1 signers give the same bytes; t give a typed refusal.
        assert handle.sign(b"facade message", signers=(2, 4, 5)) \
            .to_bytes() == signature.to_bytes()
        with pytest.raises(CombineError):
            handle.sign(b"facade message", signers=(1, 2))

    def test_quorum_rotates_over_all_signers(self, handle):
        quorums = [handle.quorum(rotation=r) for r in range(5)]
        assert all(len(q) == handle.threshold + 1 for q in quorums)
        assert set().union(*quorums) == {1, 2, 3, 4, 5}
        assert quorums[0] != quorums[1]

    def test_sign_window_matches_single_signs(self, handle):
        messages = [b"window %d" % i for i in range(6)]
        signatures = handle.sign_window(messages)
        for message, signature in zip(messages, signatures):
            assert handle.verify(message, signature)
        assert handle.verify_window(messages, signatures) == [True] * 6

    def test_from_dkg_produces_working_handle(self, toy_group):
        dkg_handle, network = ServiceHandle.from_dkg(
            toy_group, 1, 4, rng=random.Random(2))
        assert network.metrics.communication_rounds == 1
        signature = dkg_handle.sign(b"dkg message")
        assert dkg_handle.verify(b"dkg message", signature)

    def test_injector_sees_each_partial_once_in_signer_order(self, handle):
        """The one quorum producer signs the whole quorum together, but
        the injector contract is per partial: exactly one call per
        (signer, message), in signer order, on the *signed* partial —
        ``CorruptSignerFault``'s bookkeeping and ``faults_localized``
        depend on it."""
        signers = [3, 1, 2]
        honest = handle.partials_for(b"contract", signers)
        seen = []

        def injector(shard_id, signer_index, message, partial):
            seen.append((shard_id, signer_index, message, partial))
            if signer_index == 1:
                return PartialSignature(
                    index=partial.index, z=partial.z * partial.z,
                    r=partial.r)
            return partial

        produced, = handle.partials_with_faults(
            [b"contract"], signers, fault_injector=injector, shard_id=7)
        assert [entry[:3] for entry in seen] == [
            (7, index, b"contract") for index in signers]
        assert [entry[3] for entry in seen] == honest
        assert [partial.index for partial in produced] == signers
        assert produced[0] == honest[0] and produced[2] == honest[2]
        assert produced[1] != honest[1]
        assert handle.partials_with_faults([b"contract"], signers) == \
            [honest]

    def test_missing_share_is_a_key_error(self, handle):
        dropped = handle.without_signer(2)
        with pytest.raises(KeyError):
            dropped.partials_for(b"m", [1, 2, 3])
        with pytest.raises(KeyError):
            dropped.partials_with_faults([b"m"], [1, 2, 3])

    def test_wraps_aggregate_scheme(self, toy_group):
        from repro.core.aggregation import (
            AggThresholdParams, LJYAggregateScheme,
        )
        params = AggThresholdParams.generate(toy_group, t=1, n=3)
        scheme = LJYAggregateScheme(params)
        pk, shares, vks = scheme.dealer_keygen(rng=random.Random(3))
        agg_handle = ServiceHandle(scheme, pk, shares, vks)
        signature = agg_handle.sign(b"agg message")
        assert agg_handle.verify(b"agg message", signature)
        # The Appendix G scheme is Section 3 over H(PK || M): the
        # window-sized paths are the inherited ones.
        assert [s.to_bytes() for s in agg_handle.sign_window(
            [b"agg message"])] == [signature.to_bytes()]
        assert agg_handle.verify_window([b"agg message"], [signature]) \
            == [True]

    def test_aggregate_handle_serves_in_process(self, toy_group):
        """One window of signs and one verify window holding a forgery,
        through ``SigningService`` with no per-scheme code: the bytes
        are ``combine``'s, the forgery is named."""
        from repro.core.aggregation import (
            AggThresholdParams, LJYAggregateScheme,
        )
        scheme = LJYAggregateScheme(
            AggThresholdParams.generate(toy_group, t=2, n=5))
        pk, shares, vks = scheme.dealer_keygen(rng=random.Random(4))
        agg_handle = ServiceHandle(scheme, pk, shares, vks)
        messages = [b"agg svc %d" % i for i in range(6)]

        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=6,
                                   max_wait_ms=10_000)
            async with SigningService(agg_handle, config) as service:
                signed = await asyncio.gather(
                    *(service.sign(message) for message in messages))
                signatures = [result.signature for result in signed]
                bad = signatures[2]
                signatures[2] = type(bad)(z=bad.z * bad.z, r=bad.r)
                verdicts = await asyncio.gather(*(
                    service.verify(message, signature)
                    for message, signature in zip(messages, signatures)))
            return signed, verdicts, service.stats.shards[0]

        signed, verdicts, stats = run(scenario())
        assert stats.windows == 2
        assert [result.signature.to_bytes() for result in signed] == [
            scheme.combine(pk, vks, message, [
                scheme.share_sign(pk, shares[i], message) for i in (1, 2, 3)
            ]).to_bytes() for message in messages]
        assert [verdict.valid for verdict in verdicts] == [
            position != 2 for position in range(6)]


# ---------------------------------------------------------------------------
# Window-sized scheme entry points
# ---------------------------------------------------------------------------

class TestWindowEntryPoints:
    def test_combine_window_all_honest_single_batch_check(self, handle):
        scheme = handle.scheme
        messages = [b"cw %d" % i for i in range(5)]
        windows = [
            (message, handle.partials_for(message)) for message in messages
        ]
        signatures, flagged = scheme.combine_window(
            handle.public_key, handle.verification_keys, windows)
        assert flagged == []
        for message, signature in zip(messages, signatures):
            assert handle.verify(message, signature)

    def test_combine_window_flags_poisoned_request_only(self, handle):
        scheme = handle.scheme
        messages = [b"pw %d" % i for i in range(4)]
        windows = []
        for position, message in enumerate(messages):
            partials = handle.partials_for(message, signers=(1, 2, 3, 4))
            if position == 2:
                bad = partials[0]
                partials[0] = type(bad)(
                    index=bad.index, z=bad.z * bad.z, r=bad.r)
            windows.append((message, partials))
        signatures, flagged = scheme.combine_window(
            handle.public_key, handle.verification_keys, windows)
        assert flagged == [2]
        # The poisoned request recovered through the robust per-share
        # path (4 partials, 3 valid >= t+1), the rest stayed optimistic.
        for message, signature in zip(messages, signatures):
            assert signature is not None
            assert handle.verify(message, signature)

    def test_combine_window_returns_none_when_quorum_exhausted(self, handle):
        scheme = handle.scheme
        message = b"exhausted"
        partials = handle.partials_for(message, signers=(1, 2, 3))
        bad = partials[1]
        partials[1] = type(bad)(index=bad.index, z=bad.z * bad.z, r=bad.r)
        signatures, flagged = scheme.combine_window(
            handle.public_key, handle.verification_keys,
            [(message, partials)])
        assert flagged == [0]
        assert signatures == [None]

    def test_combine_window_underprovisioned_request_isolated(self, handle):
        # A request with fewer than t+1 distinct partials must be
        # flagged (None), not abort the rest of the window.
        scheme = handle.scheme
        good_message, short_message = b"good req", b"short req"
        windows = [
            (good_message, handle.partials_for(good_message)),
            (short_message,
             handle.partials_for(short_message, signers=(1, 1, 2))),
        ]
        signatures, flagged = scheme.combine_window(
            handle.public_key, handle.verification_keys, windows)
        assert flagged == [1]
        assert signatures[1] is None
        assert handle.verify(good_message, signatures[0])

    def test_verify_window_verdicts(self, handle):
        messages = [b"vw %d" % i for i in range(6)]
        signatures = [handle.sign(message) for message in messages]
        bad = signatures[3]
        signatures[3] = type(bad)(z=bad.z * bad.z, r=bad.r)
        verdicts = handle.verify_window(messages, signatures)
        assert verdicts == [True, True, True, False, True, True]


# ---------------------------------------------------------------------------
# The robust path: check -> localize -> top up -> recombine
# ---------------------------------------------------------------------------

class _Forgers:
    """An injector forging every partial of the given signers (on
    ``messages`` only, when given), logging each call it sees."""

    def __init__(self, *signers, messages=None):
        self.faults = [CorruptSignerFault(signer_index=signer,
                                          messages=messages)
                       for signer in signers]
        self.calls = []

    def __call__(self, shard_id, signer_index, message, partial):
        self.calls.append((message, signer_index))
        for fault in self.faults:
            partial = fault(shard_id, signer_index, message, partial)
        return partial

    def asked(self, message):
        return [signer for seen, signer in self.calls if seen == message]


class TestTopUp:
    def test_second_forger_in_the_reserve_costs_a_second_round(self, handle):
        """t = 2, n = 5, quorum {1, 2, 3}, signers 1 AND 4 forging:
        round one asks signer 4 (forged again), round two asks signer 5,
        and the request completes from {2, 3, 5}."""
        forgers = _Forgers(1, 4)
        outcome = handle.process_sign_window(
            [b"two forgers"], fault_injector=forgers)
        assert forgers.asked(b"two forgers") == [1, 2, 3, 4, 5]
        assert handle.verify(b"two forgers", outcome.signatures[0])
        assert outcome.flagged == (0,)
        assert outcome.failures == ()
        assert outcome.fallback_combines == 1

    def test_top_up_follows_the_quorum_in_ring_order(self, handle):
        forgers = _Forgers(5)
        outcome = handle.process_sign_window(
            [b"rotated"], quorum=handle.quorum(rotation=3),
            fault_injector=forgers)
        # Quorum (4, 5, 1): the next signer in ring order is 2.
        assert forgers.asked(b"rotated") == [4, 5, 1, 2]
        assert handle.verify(b"rotated", outcome.signatures[0])

    def test_more_than_t_forgers_fail_typed_neighbours_unaffected(
            self, handle):
        from repro.service import RequestFailedError
        target = b"doomed 2"
        forgers = _Forgers(1, 4, 5, messages={target})

        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=4,
                                   max_wait_ms=50.0,
                                   fault_injector=forgers)
            async with SigningService(handle, config) as service:
                return await asyncio.wait_for(asyncio.gather(*(
                    service.sign(b"doomed %d" % i) for i in range(4)),
                    return_exceptions=True), timeout=30.0)

        results = run(scenario())
        assert forgers.asked(target) == [1, 2, 3, 4, 5]
        for position, result in enumerate(results):
            if position == 2:
                assert isinstance(result, RequestFailedError)
                assert "fewer than 3 valid partial signatures" in \
                    str(result)
                assert "5 signers" in str(result)
            else:
                assert not result.fallback
                assert handle.verify(result.message, result.signature)
                assert forgers.asked(result.message) == [1, 2, 3]

    def test_every_request_forged_tops_up_under_one_batched_check(
            self, handle, monkeypatch):
        """``CorruptSignerFault(messages=None)``: all 16 requests lose
        signer 1 in one round over its 16 partials, and the 16 top-up
        partials get no share-level check of their own — the window
        re-check is theirs."""
        messages = [b"all forged %d" % i for i in range(16)]
        forgers = _Forgers(1)
        batches = []
        locate = handle.scheme.locate_invalid_partials

        def spy(public_key, verification_keys, items):
            batches.append([partial.index for _, partial in items])
            return locate(public_key, verification_keys, items)

        monkeypatch.setattr(handle.scheme, "locate_invalid_partials", spy)
        outcome = handle.process_sign_window(
            messages, fault_injector=forgers)
        assert batches == [[1] * 16]
        assert handle.suspects == (1,)
        assert len(forgers.calls) == 48 + 16
        assert outcome.flagged == tuple(range(16))
        assert outcome.fallback_combines == 16
        assert outcome.failures == ()
        for message, signature in zip(messages, outcome.signatures):
            assert handle.verify(message, signature)

    def test_two_forgeries_in_sixteen_cost_two_extra_partials(self, handle):
        """The benchmark's ``sign_faulty`` shape: 48 quorum partials and
        one top-up partial per forged request — not a full ring each."""
        messages = [b"shape %d" % i for i in range(16)]
        forgers = _Forgers(1, messages={messages[0], messages[8]})
        outcome = handle.process_sign_window(
            messages, fault_injector=forgers)
        assert len(forgers.calls) == 48 + 2
        assert forgers.asked(messages[8]) == [1, 2, 3, 4]
        assert outcome.flagged == (0, 8)
        assert outcome.fallback_combines == 2
        for message, signature in zip(messages, outcome.signatures):
            assert handle.verify(message, signature)

    def test_a_conviction_is_one_json_line(self, handle, caplog):
        """Which signer forged, answered from what the system emits:
        one record on logger ``repro.core.scheme`` per conviction,
        none for an honest window."""
        import json
        import logging
        messages = [b"logged %d" % i for i in range(4)]
        forgers = _Forgers(2, messages={messages[1], messages[3]})
        with caplog.at_level(logging.INFO, logger="repro.core.scheme"):
            handle.process_sign_window(messages)
            assert caplog.records == []
            for _ in range(2):
                handle.process_sign_window(
                    messages, fault_injector=forgers)
            # A one-off robust combine is a window of one, epoch 0.
            handle.scheme.combine(
                handle.public_key, handle.verification_keys, messages[1],
                handle.partials_with_faults(
                    [messages[1]], [2, 3, 4, 5], fault_injector=forgers)[0])
        cold, convict, one_off = [json.loads(record.getMessage())
                                  for record in caplog.records]
        assert cold == {
            "event": "conviction", "signer": 2, "epoch": handle.epoch,
            "window": 4, "positions": [1, 3], "checked_first": False}
        assert convict == {**cold, "checked_first": True}
        assert one_off == {**cold, "epoch": 0, "window": 1,
                           "positions": [0]}
        assert handle.suspects == (2,)

    def test_sign_window_takes_the_same_path(self, handle):
        """A handle holding a wrong share for signer 2 (no injector in
        sight): ``sign_window`` tops up like the service does, and
        raises once more than t shares are wrong."""
        from repro.errors import CombineError

        def with_wrong_shares(*signers):
            shares = dict(handle.shares)
            for signer in signers:
                shares[signer] = type(shares[signer])(
                    index=signer, a_1=shares[signer].a_1 + 1,
                    b_1=shares[signer].b_1, a_2=shares[signer].a_2,
                    b_2=shares[signer].b_2)
            return ServiceHandle(handle.scheme, handle.public_key, shares,
                                 handle.verification_keys)

        messages = [b"library %d" % i for i in range(3)]
        signatures = with_wrong_shares(2).sign_window(messages)
        assert [s.to_bytes() for s in signatures] == [
            handle.sign(message).to_bytes() for message in messages]
        with pytest.raises(CombineError):
            with_wrong_shares(2, 4, 5).sign_window(messages)

    def test_without_top_up_a_short_position_stays_none(self, handle):
        """The simulator's combiner only has what arrived."""
        message = b"what arrived"
        partials, = handle.partials_with_faults(
            [message], (1, 2, 3), fault_injector=_Forgers(2))
        signatures, flagged = handle.scheme.combine_window(
            handle.public_key, handle.verification_keys,
            [(message, partials)])
        assert (signatures, flagged) == ([None], [0])
        asked = []

        def top_up(message, asked_indices, missing):
            asked.append((sorted(asked_indices), missing))
            return handle.partials_for(message, [5][:missing])

        signatures, flagged = handle.scheme.combine_window(
            handle.public_key, handle.verification_keys,
            [(message, partials)], top_up=top_up)
        assert asked == [([1, 2, 3], 1)]
        assert flagged == [0]
        assert handle.verify(message, signatures[0])


# ---------------------------------------------------------------------------
# Batch accumulator
# ---------------------------------------------------------------------------

class TestBatchAccumulator:
    def test_closes_on_max_batch(self):
        async def scenario():
            queue = asyncio.Queue()
            accumulator = BatchAccumulator(queue, max_batch=3,
                                           max_wait_ms=10_000)
            for item in range(7):
                queue.put_nowait(item)
            first = await accumulator.next_window()
            second = await accumulator.next_window()
            return first, second

        first, second = run(scenario())
        assert first == [0, 1, 2]
        assert second == [3, 4, 5]

    def test_closes_on_deadline_with_partial_window(self):
        async def scenario():
            queue = asyncio.Queue()
            accumulator = BatchAccumulator(queue, max_batch=64,
                                           max_wait_ms=20)
            queue.put_nowait("only")
            return await accumulator.next_window()

        assert run(scenario()) == ["only"]

    def test_blocks_until_first_item(self):
        async def scenario():
            queue = asyncio.Queue()
            accumulator = BatchAccumulator(queue, max_batch=4,
                                           max_wait_ms=5)

            async def feeder():
                await asyncio.sleep(0.01)
                queue.put_nowait("late")

            feeder_task = asyncio.get_running_loop().create_task(feeder())
            window = await accumulator.next_window()
            await feeder_task
            return window

        assert run(scenario()) == ["late"]

    def test_rejects_bad_parameters(self):
        queue = asyncio.Queue()
        with pytest.raises(ValueError):
            BatchAccumulator(queue, max_batch=0, max_wait_ms=1)
        with pytest.raises(ValueError):
            BatchAccumulator(queue, max_batch=1, max_wait_ms=-1)


class TestPrepareHook:
    """The accumulator with a per-item ``prepare`` hook: the window's
    wait is work-conserving, the close rule is otherwise the same."""

    def test_lone_item_still_waits_out_the_deadline_when_prepare_is_fast(
            self):
        async def scenario():
            queue = asyncio.Queue()
            prepared = []
            accumulator = BatchAccumulator(
                queue, max_batch=8, max_wait_ms=60,
                prepare=lambda item: prepared.append(item) or True)
            queue.put_nowait("first")

            async def straggler():
                await asyncio.sleep(0.02)
                queue.put_nowait("second")

            loop = asyncio.get_running_loop()
            task = loop.create_task(straggler())
            started = loop.time()
            window = await accumulator.next_window()
            await task
            return window, prepared, loop.time() - started

        window, prepared, elapsed = run(scenario())
        assert window == prepared == ["first", "second"]
        assert elapsed >= 0.055

    def test_item_enqueued_during_an_overrun_joins_this_window(self):
        async def scenario():
            queue = asyncio.Queue()

            def prepare(item):
                time.sleep(0.01)          # overruns the 2 ms deadline
                if item == "first":
                    queue.put_nowait("during")
                return True

            accumulator = BatchAccumulator(queue, max_batch=8,
                                           max_wait_ms=2, prepare=prepare)
            queue.put_nowait("first")
            return await accumulator.next_window(), queue.qsize()

        assert run(scenario()) == (["first", "during"], 0)

    def test_request_on_the_wire_during_an_overrun_joins_this_window(self):
        """What :data:`ADMISSION_PASSES` is sized for: the bytes reach a
        listening socket while ``prepare`` holds the loop, and selector
        poll -> protocol read -> handler task -> put must all happen
        before the window may close on its (already passed) deadline."""
        async def scenario():
            queue = asyncio.Queue()

            async def admit(reader, writer):
                queue.put_nowait((await reader.readline()).strip())
                writer.close()

            server = await asyncio.start_server(admit, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = socket.create_connection(("127.0.0.1", port))
            await asyncio.sleep(0.01)     # the server side has accepted

            def prepare(item):
                if item == b"first":
                    client.sendall(b"during\n")
                time.sleep(0.01)
                return True

            accumulator = BatchAccumulator(queue, max_batch=8,
                                           max_wait_ms=2, prepare=prepare)
            queue.put_nowait(b"first")
            window = await accumulator.next_window()
            client.close()
            server.close()
            await server.wait_closed()
            return window

        assert run(scenario()) == [b"first", b"during"]

    def test_full_queue_closes_at_max_batch_without_preparing(self):
        async def scenario():
            queue = asyncio.Queue()
            prepared = []

            def prepare(item):
                prepared.append(item)
                queue.put_nowait(7)       # fill the window meanwhile
                queue.put_nowait(8)
                return True

            accumulator = BatchAccumulator(queue, max_batch=3,
                                           max_wait_ms=10_000,
                                           prepare=prepare)
            for item in range(7):
                queue.put_nowait(item)
            windows = [await accumulator.next_window() for _ in range(3)]
            return windows, prepared

        windows, prepared = run(scenario())
        # Two windows fill from the queue: closed at once, nothing
        # prepared.  The third prepares its first item, fills while it
        # does, and closes without preparing past max_batch.
        assert windows == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert prepared == [6]

    def test_cancellation_mid_prepare_puts_every_taken_item_back(self):
        async def scenario():
            queue = asyncio.Queue(maxsize=2)
            consumer = None

            def prepare(item):
                queue.put_nowait("newcomer")   # admission refills a slot
                consumer.cancel()              # lands at prepare's yield
                return True

            accumulator = BatchAccumulator(queue, max_batch=8,
                                           max_wait_ms=10_000,
                                           prepare=prepare)
            queue.put_nowait("a")
            queue.put_nowait("b")
            consumer = asyncio.get_running_loop().create_task(
                accumulator.next_window())
            with pytest.raises(asyncio.CancelledError):
                await consumer
            queued = [queue.get_nowait() for _ in range(queue.qsize())]
            return queued, accumulator.spilled

        queued, spilled = run(scenario())
        assert queued == ["newcomer", "a"]
        assert spilled == ["b"]


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------

class TestHashRing:
    def test_deterministic_and_total(self):
        ring = HashRing([0, 1, 2, 3])
        messages = [b"m%d" % i for i in range(200)]
        owners = [ring.shard_for(message) for message in messages]
        assert owners == [ring.shard_for(message) for message in messages]
        assert set(owners) == {0, 1, 2, 3}

    def test_resize_moves_only_a_fraction(self):
        small = HashRing([0, 1, 2, 3])
        grown = HashRing([0, 1, 2, 3, 4])
        messages = [b"key%d" % i for i in range(500)]
        moved = sum(
            1 for message in messages
            if small.shard_for(message) != grown.shard_for(message))
        # Consistent hashing: only ~1/5 of keys move to the new shard;
        # modulo hashing would remap ~4/5.  Allow generous slack.
        assert moved < len(messages) * 0.4
        for message in messages:
            if small.shard_for(message) != grown.shard_for(message):
                assert grown.shard_for(message) == 4

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])


# ---------------------------------------------------------------------------
# The service itself
# ---------------------------------------------------------------------------

class TestSigningService:
    def test_sign_and_verify_requests(self, handle):
        async def scenario():
            config = ServiceConfig(num_shards=2, max_batch=8,
                                   max_wait_ms=2.0)
            async with SigningService(handle, config) as service:
                results = await asyncio.gather(*(
                    service.sign(b"svc %d" % i) for i in range(20)))
                verdicts = await asyncio.gather(*(
                    service.verify(result.message, result.signature)
                    for result in results))
            return service, results, verdicts

        service, results, verdicts = run(scenario())
        assert all(handle.verify(r.message, r.signature) for r in results)
        assert all(v.valid for v in verdicts)
        stats = service.snapshot_stats()
        assert stats.accepted == 40
        assert stats.completed == 40
        assert stats.rejected == 0
        # Batching happened: strictly fewer windows than requests.
        assert 0 < sum(s.windows for s in stats.shards.values()) < 40
        assert stats.ingress.messages == 40
        assert stats.egress.bytes_total > 0

    def test_batch_window_amortization_counts(self, handle):
        """A full window of k requests costs one batch check, not k."""
        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=16,
                                   max_wait_ms=50.0)
            async with SigningService(handle, config) as service:
                results = await asyncio.gather(*(
                    service.sign(b"amortize %d" % i) for i in range(16)))
            return service, results

        service, results = run(scenario())
        stats = service.snapshot_stats()
        shard = stats.shards[0]
        assert shard.windows == 1
        assert shard.full_windows == 1
        assert shard.requests_per_window == 16
        assert all(result.batch_size == 16 for result in results)

    def test_presigned_and_window_signed_bytes_are_identical(self, handle):
        """LJY signatures are unique per message: whether a request's
        partials were made at arrival or at the window's close cannot
        show in the bytes — nor can busy time leave the shard's ledger
        when Share-Sign moves in front of the window."""
        messages = [b"unique %d" % i for i in range(8)]

        async def scenario(trickle):
            # The trickle is deterministic: request k+1 is admitted
            # once the shard has Share-Signed request k (the injector
            # sees every partial it makes), never on a clock.
            signed = {message: asyncio.Event() for message in messages}

            def witness(shard_id, signer_index, message, partial):
                signed[message].set()
                return partial

            config = ServiceConfig(num_shards=1, max_batch=8,
                                   max_wait_ms=10_000,
                                   fault_injector=witness)

            async def one(service, position):
                if trickle and position:
                    await signed[messages[position - 1]].wait()
                return await service.sign(messages[position])

            async with SigningService(handle, config) as service:
                results = await asyncio.gather(*(
                    one(service, position) for position in range(8)))
            return [r.signature.to_bytes() for r in results], \
                service.stats.shards[0]

        burst, burst_stats = run(scenario(False))
        trickled, trickled_stats = run(scenario(True))
        # A window that fills from the queue pre-signs nothing; one
        # that waits pre-signs all but the request that closes it.
        assert burst_stats.presigned == 0 and burst_stats.windows == 1
        assert trickled_stats.presigned == 7 and trickled_stats.windows == 1
        reference = [s.to_bytes() for s in handle.sign_window(messages)]
        assert burst == trickled == reference
        assert trickled_stats.busy_ms > 0

    def test_presign_time_is_counted_as_busy(self, handle):
        """A lone request whose Share-Sign takes 30 ms is a shard that
        was busy 30 ms, although its window's close does none of it."""
        def slow_signer(shard_id, signer_index, message, partial):
            time.sleep(0.01)
            return partial

        async def scenario():
            config = ServiceConfig(num_shards=1, max_wait_ms=1.0,
                                   fault_injector=slow_signer)
            async with SigningService(handle, config) as service:
                await service.sign(b"lone")
            return service.stats.shards[0]

        stats = run(scenario())
        assert stats.presigned == 1
        assert stats.busy_ms >= 30.0

    def test_load_shedding_typed_and_counted(self, handle):
        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=4,
                                   max_wait_ms=1.0, queue_depth=2)
            async with SigningService(handle, config) as service:
                outcomes = await asyncio.gather(
                    *(service.sign(b"shed %d" % i) for i in range(10)),
                    return_exceptions=True)
            return service, outcomes

        service, outcomes = run(scenario())
        rejected = [o for o in outcomes
                    if isinstance(o, ServiceOverloadedError)]
        completed = [o for o in outcomes
                     if not isinstance(o, Exception)]
        assert rejected and completed
        assert rejected[0].shard_id == 0
        stats = service.snapshot_stats()
        assert stats.rejected == len(rejected)
        assert stats.completed == len(completed)

    def test_closed_service_rejects(self, handle):
        async def scenario():
            service = SigningService(handle)
            with pytest.raises(ServiceClosedError):
                await service.sign(b"early")
            async with service:
                await service.sign(b"during")
            with pytest.raises(ServiceClosedError):
                await service.sign(b"late")

        run(scenario())

    def test_traffic_partitions_across_shards(self, handle):
        async def scenario():
            config = ServiceConfig(num_shards=4, max_batch=4,
                                   max_wait_ms=1.0)
            async with SigningService(handle, config) as service:
                await asyncio.gather(*(
                    service.sign(b"partition %d" % i) for i in range(64)))
            return service

        service = run(scenario())
        stats = service.snapshot_stats()
        busy_shards = [s for s in stats.shards.values() if s.requests]
        assert len(busy_shards) >= 3
        assert sum(s.requests for s in stats.shards.values()) == 64

    def test_forged_partial_localized_window_completes(self, handle):
        """The acceptance scenario: a shard injecting one forged partial
        into a full window is localized via locate_invalid and every
        request in the window still completes with a valid signature."""
        fault = CorruptSignerFault(signer_index=1, shard_id=0)

        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=8,
                                   max_wait_ms=50.0, fault_injector=fault)
            async with SigningService(handle, config) as service:
                results = await asyncio.gather(*(
                    service.sign(b"fault %d" % i) for i in range(8)))
            return service, results

        service, results = run(scenario())
        assert fault.injected
        for result in results:
            assert handle.verify(result.message, result.signature)
        stats = service.snapshot_stats()
        shard = stats.shards[0]
        assert shard.faults_localized > 0
        assert shard.fallback_combines > 0
        assert stats.failed == 0

    def test_targeted_fault_leaves_neighbors_optimistic(self, handle):
        """A forgery against one message must not drag the rest of its
        window through the robust path."""
        target = b"targeted 3"
        fault = CorruptSignerFault(signer_index=2, messages={target})

        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=8,
                                   max_wait_ms=50.0, fault_injector=fault)
            async with SigningService(handle, config) as service:
                results = await asyncio.gather(*(
                    service.sign(b"targeted %d" % i) for i in range(8)))
            return service, results

        service, results = run(scenario())
        by_message = {result.message: result for result in results}
        # Signer 2 is in shard 0's quorum (1, 2, 3), so the fault fired.
        assert fault.injected
        assert by_message[target].fallback
        untouched = [r for m, r in by_message.items() if m != target]
        assert all(not r.fallback for r in untouched)
        for result in results:
            assert handle.verify(result.message, result.signature)

    def test_cancelled_client_does_not_poison_window(self, handle):
        # One client timing out must not fail its window neighbors.
        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=8,
                                   max_wait_ms=50.0)
            async with SigningService(handle, config) as service:
                doomed = asyncio.get_running_loop().create_task(
                    service.sign(b"cancelled req"))
                survivors = [
                    asyncio.get_running_loop().create_task(
                        service.sign(b"survivor %d" % i))
                    for i in range(7)
                ]
                await asyncio.sleep(0)   # let all requests enqueue
                doomed.cancel()
                results = await asyncio.gather(*survivors)
                with pytest.raises(asyncio.CancelledError):
                    await doomed
            return results

        results = run(scenario())
        assert len(results) == 7
        for result in results:
            assert handle.verify(result.message, result.signature)

    def test_invalid_signature_reported_not_failed(self, handle):
        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=4,
                                   max_wait_ms=1.0)
            async with SigningService(handle, config) as service:
                good = await service.sign(b"good message")
                bad_signature = type(good.signature)(
                    z=good.signature.z * good.signature.z,
                    r=good.signature.r)
                mixed = await asyncio.gather(
                    service.verify(b"good message", good.signature),
                    service.verify(b"good message", bad_signature))
            return mixed

        ok, bad = run(scenario())
        assert ok.valid and not bad.valid


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------

class TestLoadGenerator:
    def test_closed_loop_report(self, handle):
        async def scenario():
            config = ServiceConfig(num_shards=2, max_batch=8,
                                   max_wait_ms=2.0)
            async with SigningService(handle, config) as service:
                generator = LoadGenerator(
                    lambda i: service.sign(b"closed %d" % i))
                return await generator.run_closed(total=24, concurrency=8)

        report = run(scenario())
        assert report.sent == 24
        assert report.completed == 24
        assert report.rejected == 0
        assert report.throughput_rps > 0
        assert report.p50_ms <= report.p99_ms
        assert len(report.latencies_ms) == 24
        assert sorted(report.results) == list(range(24))
        assert all(result.message == b"closed %d" % ordinal
                   for ordinal, result in report.results.items())

    def test_open_loop_poisson_counts_shedding(self, handle):
        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=2,
                                   max_wait_ms=0.0, queue_depth=1)
            async with SigningService(handle, config) as service:
                generator = LoadGenerator(
                    lambda i: service.sign(b"open %d" % i),
                    rng=random.Random(18))
                return await generator.run_open(total=40, rate_rps=20_000)

        report = run(scenario())
        assert report.sent == 40
        assert report.completed + report.rejected + report.failed == 40
        assert report.completed > 0
        # Only completed ordinals keep a result.
        assert len(report.results) == report.completed

    def test_invalid_verifies_counted(self, handle):
        signature = handle.sign(b"valid message")
        forged = type(signature)(z=signature.z * signature.z, r=signature.r)

        async def scenario():
            config = ServiceConfig(num_shards=1, max_batch=4,
                                   max_wait_ms=1.0)
            async with SigningService(handle, config) as service:
                generator = LoadGenerator(
                    lambda i: service.verify(
                        b"valid message",
                        forged if i % 2 else signature))
                return await generator.run_closed(total=8, concurrency=4)

        report = run(scenario())
        assert report.completed == 8
        assert report.invalid == 4

    def test_percentile_nearest_rank(self):
        from repro.service.loadgen import percentile
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) == 99.0
        assert percentile([7.0], 50) == 7.0


# ---------------------------------------------------------------------------
# Real curve end to end
# ---------------------------------------------------------------------------

@pytest.mark.bn254
def test_service_end_to_end_on_bn254(bn254_group):
    handle = ServiceHandle.dealer(bn254_group, 1, 3, rng=random.Random(20))
    fault = CorruptSignerFault(signer_index=1, shard_id=0)

    async def scenario():
        config = ServiceConfig(num_shards=1, max_batch=4,
                               max_wait_ms=100.0, fault_injector=fault)
        async with SigningService(handle, config) as service:
            results = await asyncio.gather(*(
                service.sign(b"bn254 svc %d" % i) for i in range(4)))
            verdicts = await asyncio.gather(*(
                service.verify(result.message, result.signature)
                for result in results))
        return results, verdicts

    results, verdicts = asyncio.run(scenario())
    assert fault.injected
    assert all(handle.verify(r.message, r.signature) for r in results)
    assert all(v.valid for v in verdicts)
