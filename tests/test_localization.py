"""Seeded sweeps of the one localizer against a brute-force scan.

``locate_invalid`` and ``locate_invalid_partials`` find offenders by
quotient bisection over coined pairing-product values (each failing
node evaluates its left half only and *derives* the right one);
``locate_invalid`` first tries to name a lone offender from the node's
value and its index-weighted companion.  The reference here is the
slowest honest thing: one uncoined ``verify`` / ``share_verify`` per
item.  No hypothesis dependency — the sweeps are deterministic, driven
by the session-seeded ``random.Random`` (rerun a failure with
``--seed N``).

Swept: every window size 1-33 (both sides of every power of two, so
every shape of uneven split) times the forgery sets that stress a
bisection differently — none, one, an adjacent pair, one per half,
every other item, all of them.  Then the inputs built to fool batching
rather than bisection: two forgeries that cancel under *equal* coins,
two that fake a lone offender at an honest position under equal coins,
items without a verification key, a key filed under the wrong index,
duplicate indices, and the same items in another order.

``TestLocalizerCost`` counts pairing products (evaluations of the
``value_of`` closure) against a plain quotient bisection kept here as
the reference: the companion must never make a localization dearer.

``TestRobustWindowSweep`` holds ``combine_window``'s robust path —
signer by signer under a window check, last convict first — to a
per-partial ``share_verify`` scan over the same windows: same bytes
wherever t+1 honest partials are reachable, ``None`` elsewhere, the
same flagged positions, whatever the ``Suspects`` it is handed
remember — and robust ``combine``, a window of one message, to the
same scan on every recipe, under the Section 3 scheme and under the
Appendix G one.
"""

import itertools
import random

import pytest

from repro.core.aggregation import AggThresholdParams, LJYAggregateScheme
from repro.core.keys import PartialSignature, Signature, VerificationKey
from repro.core.scheme import (
    LJYThresholdScheme, Suspects, ThresholdParams, _coins, _descend,
    reconstruct_master_key,
)
from repro.errors import CombineError

SIZES = range(1, 34)
SIGNERS = (1, 2, 3)


def _forgery_sets(size, rng):
    """Named subsets of ``range(size)`` to forge."""
    one = rng.randrange(size)
    sets = {
        "none": set(),
        "one": {one},
        "every_other": set(range(0, size, 2)),
        "all": set(range(size)),
    }
    if size >= 2:
        first = rng.randrange(size - 1)
        sets["adjacent_pair"] = {first, first + 1}
        sets["one_per_half"] = {rng.randrange(size // 2),
                                rng.randrange(size // 2, size)}
    return sets


class _Fixture:
    """A keyed scheme on one backend plus item builders."""

    def __init__(self, group, rng, scheme=None):
        self.rng = rng
        self.scheme = scheme or LJYThresholdScheme(
            ThresholdParams.generate(group, t=2, n=5))
        self.pk, self.shares, self.vks = self.scheme.dealer_keygen(rng=rng)
        self.master = reconstruct_master_key(
            list(self.shares.values()), group.order, 2)
        self.g = group.g1_generator()

    def share_sign(self, signer, message):
        return self.scheme.share_sign(self.shares[signer], message)

    def master_signature(self, message):
        return self.scheme.sign_with_master(self.master, message)

    def signatures(self, size, forged):
        messages = [b"sweep %d" % i for i in range(size)]
        signatures = []
        for position, message in enumerate(messages):
            signature = self.master_signature(message)
            if position in forged:
                signature = Signature(
                    z=signature.z * self.g ** self.rng.randrange(1, 1 << 32),
                    r=signature.r)
            signatures.append(signature)
        return messages, signatures

    def partials(self, size, forged, signers=SIGNERS):
        """``size`` flattened ``(message, partial)`` items, message-major
        (the order a combiner flattens a window in)."""
        items = []
        for position in range(size):
            message = b"sweep %d" % (position // len(signers))
            signer = signers[position % len(signers)]
            partial = self.share_sign(signer, message)
            if position in forged:
                partial = PartialSignature(
                    index=signer, z=partial.z,
                    r=partial.r * self.g ** self.rng.randrange(1, 1 << 32))
            items.append((message, partial))
        return items

    def signature_values(self, messages, signatures, coins):
        """The scheme's ``value_of`` over signatures, under ``coins``."""
        return self.scheme._values(
            self.pk, *self.scheme._signed(self.pk, messages, signatures),
            coins)

    def partial_values(self, items, coins):
        """The scheme's ``value_of`` over keyed ``(message, partial)``
        items, under ``coins``."""
        keys, checked, _, _ = self.scheme._keyed(self.vks, items)
        return self.scheme._values(self.pk, keys, checked, coins)

    def scan_signatures(self, messages, signatures):
        return [position for position, (message, signature)
                in enumerate(zip(messages, signatures))
                if not self.scheme.verify(self.pk, message, signature)]

    def scan_partials(self, items, vks=None):
        vks = self.vks if vks is None else vks
        return [
            position for position, (message, partial) in enumerate(items)
            if vks.get(partial.index) is None
            or not self.scheme.share_verify(
                self.pk, vks[partial.index], message, partial)]

    def sweep(self, sizes):
        for size in sizes:
            for name, forged in _forgery_sets(size, self.rng).items():
                messages, signatures = self.signatures(size, forged)
                assert self.scan_signatures(messages, signatures) == \
                    sorted(forged)
                assert self.scheme.locate_invalid(
                    self.pk, messages, signatures, rng=self.rng
                ) == sorted(forged), (size, name)
                assert self.scheme.verify_window(
                    self.pk, messages, signatures, rng=self.rng
                ) == [position not in forged for position in range(size)]
                assert self.scheme.batch_verify(
                    self.pk, messages, signatures, rng=self.rng
                ) is (not forged)
                items = self.partials(size, forged)
                assert self.scan_partials(items) == sorted(forged)
                assert self.scheme.locate_invalid_partials(
                    self.pk, self.vks, items, rng=self.rng
                ) == sorted(forged), (size, name)
                assert self.scheme.batch_share_verify_window(
                    self.pk, self.vks, items, rng=self.rng
                ) is (not forged)


class _AggregateFixture(_Fixture):
    """The Appendix G scheme: Section 3 over ``H(PK || M)``."""

    def __init__(self, group, rng):
        super().__init__(group, rng, LJYAggregateScheme(
            AggThresholdParams.generate(group, t=2, n=5)))

    def share_sign(self, signer, message):
        return self.scheme.share_sign(self.pk, self.shares[signer], message)

    def master_signature(self, message):
        a_1, b_1, a_2, b_2 = self.master
        h_1, h_2 = self.scheme.hashed(self.pk, message)
        return Signature(z=h_1 ** -a_1 * h_2 ** -a_2,
                         r=h_1 ** -b_1 * h_2 ** -b_2)


@pytest.fixture
def toy(toy_group, session_seed):
    return _Fixture(toy_group, random.Random(
        0x10CA7E if session_seed is None else session_seed))


@pytest.fixture
def aggregate(toy_group, session_seed):
    return _AggregateFixture(toy_group, random.Random(
        0xA66 if session_seed is None else session_seed))


class TestLocalizerSweepToy:
    def test_every_size_and_forgery_set_matches_the_scan(self, toy):
        toy.sweep(SIZES)

    def test_forgeries_cancelling_under_equal_coins_both_reported(
            self, toy):
        """``z * g^d`` on one item and ``z * g^-d`` on another, same
        signer: the two errors cancel in every product that weighs the
        items equally, so only per-item coins tell them apart."""
        delta = toy.g ** toy.rng.randrange(1, 1 << 64)
        for size in (2, 7, 16, 33):
            first, second = sorted(toy.rng.sample(range(size), 2))
            messages, signatures = toy.signatures(size, set())
            for position, shift in ((first, delta),
                                    (second, delta.inverse())):
                good = signatures[position]
                signatures[position] = Signature(
                    z=good.z * shift, r=good.r)
            assert toy.scheme.locate_invalid(
                toy.pk, messages, signatures, rng=toy.rng
            ) == [first, second]
            # Partials: both forgeries by signer 1, on two messages.
            items = toy.partials(3 * size, set())
            by_signer_1 = [position for position, (_, partial)
                           in enumerate(items) if partial.index == 1]
            first, second = sorted(toy.rng.sample(by_signer_1, 2))
            for position, shift in ((first, delta),
                                    (second, delta.inverse())):
                message, good = items[position]
                items[position] = (message, PartialSignature(
                    index=1, z=good.z * shift, r=good.r))
            assert not toy.scheme.batch_share_verify_window(
                toy.pk, toy.vks, items, rng=toy.rng)
            assert toy.scheme.locate_invalid_partials(
                toy.pk, toy.vks, items, rng=toy.rng) == [first, second]

    def test_forgeries_faking_a_lone_offender_under_equal_coins(
            self, toy):
        """``z * g^d`` at i and ``z * g^(-d (i - k) / (j - k))`` at j,
        for an honest k: under *equal* coins the window's value and its
        index-weighted companion are exactly those of a lone forgery at
        k — the weighted analogue of the cancelling pair — so only
        per-item coins keep k out of the report."""
        order = toy.scheme.group.order
        for size in (3, 7, 16, 33):
            i, j, k = toy.rng.sample(range(size), 3)
            delta = toy.rng.randrange(1, 1 << 64)
            messages, signatures = toy.signatures(size, set())
            for position, shift in (
                    (i, delta),
                    (j, -delta * (i - k) * pow(j - k, -1, order))):
                good = signatures[position]
                signatures[position] = Signature(
                    z=good.z * toy.g ** (shift % order), r=good.r)
            value_of = toy.signature_values(messages, signatures, [1] * size)
            assert _descend(value_of, 0, size, value_of(0, size),
                            value_of(0, size, weighted=True)) == [k]
            assert toy.scheme.locate_invalid(
                toy.pk, messages, signatures, rng=toy.rng
            ) == sorted((i, j))
            assert toy.scheme.verify_window(
                toy.pk, messages, signatures, rng=toy.rng
            ) == [position not in (i, j) for position in range(size)]

    def test_keyless_and_mismatched_items_reported_without_poisoning(
            self, toy):
        """A signer with no verification key, and a key filed under an
        index that is not its own, are invalid items — reported beside
        the real forgeries, and the honest rest still passes."""
        items = toy.partials(12, {4})
        message, good = items[7]
        items[7] = (message, PartialSignature(
            index=99, z=good.z, r=good.r))
        assert toy.scheme.locate_invalid_partials(
            toy.pk, toy.vks, items, rng=toy.rng) == [4, 7]
        assert toy.scan_partials(items) == [4, 7]
        assert not toy.scheme.batch_share_verify_window(
            toy.pk, toy.vks, items, rng=toy.rng)
        # Signer 2's key filed under index 3: every item of signer 3
        # is unverifiable, whatever it carries.
        misfiled = dict(toy.vks)
        misfiled[3] = VerificationKey(
            index=2, v_1=toy.vks[2].v_1, v_2=toy.vks[2].v_2)
        items = toy.partials(9, set())
        assert toy.scheme.locate_invalid_partials(
            toy.pk, misfiled, items, rng=toy.rng) == [2, 5, 8]
        # Keyless items only: nothing enters a batch.
        rogue = [(message, PartialSignature(
            index=50 + position, z=partial.z, r=partial.r))
            for position, (message, partial) in enumerate(items[:3])]
        assert toy.scheme.locate_invalid_partials(
            toy.pk, toy.vks, rogue, rng=toy.rng) == [0, 1, 2]
        assert toy.scheme.locate_invalid_partials(
            toy.pk, toy.vks, rogue + items[3:4], rng=toy.rng) == [0, 1, 2]

    def test_duplicate_indices_in_one_request(self, toy):
        """Two partials under one index — an honest one and a forged
        one, in either order: each is judged on its own, and the robust
        combine uses the honest one."""
        message = b"duplicated"
        honest = [toy.scheme.share_sign(toy.shares[i], message)
                  for i in SIGNERS]
        forged = PartialSignature(
            index=1, z=honest[0].z * toy.g, r=honest[0].r)
        expected = toy.scheme.sign_with_master(toy.master, message)
        for partials, bad in (([forged] + honest, [0]),
                              (honest + [forged], [3]),
                              ([forged, forged] + honest, [0, 1])):
            items = [(message, partial) for partial in partials]
            assert toy.scheme.locate_invalid_partials(
                toy.pk, toy.vks, items, rng=toy.rng) == bad
            for robust in (
                    toy.scheme.combine(toy.pk, toy.vks, message, partials,
                                       rng=toy.rng),
                    toy.scheme.combine_window(
                        toy.pk, toy.vks, [(message, partials)],
                        rng=toy.rng)[0][0]):
                assert robust.to_bytes() == expected.to_bytes()

    def test_flagged_set_independent_of_item_order(self, toy):
        forged = {1, 6, 7, 19}
        items = toy.partials(23, forged)
        messages, signatures = toy.signatures(23, forged)
        for seed in range(5):
            order = list(range(23))
            random.Random(seed).shuffle(order)
            located = toy.scheme.locate_invalid_partials(
                toy.pk, toy.vks, [items[position] for position in order],
                rng=random.Random(99))
            assert {order[offset] for offset in located} == forged
            located = toy.scheme.locate_invalid(
                toy.pk, [messages[position] for position in order],
                [signatures[position] for position in order],
                rng=random.Random(99))
            assert {order[offset] for offset in located} == forged

    def test_coins_fresh_per_localization(self, toy):
        """Coins come from the caller's rng once per call, one per
        checked item, after the items are fixed — never a constant,
        never carried over from the last call."""
        class Recording(random.Random):
            def __init__(self):
                super().__init__(5)
                self.draws = 0

            def randrange(self, *args, **kwargs):
                self.draws += 1
                return super().randrange(*args, **kwargs)

        items = toy.partials(12, {3, 10})
        rng = Recording()
        toy.scheme.locate_invalid_partials(toy.pk, toy.vks, items, rng=rng)
        assert rng.draws == 12
        messages, signatures = toy.signatures(9, {2})
        rng = Recording()
        toy.scheme.locate_invalid(toy.pk, messages, signatures, rng=rng)
        assert rng.draws == 9


def _plain_bisection(value_of, lo, hi, value):
    """The reference: quotient bisection with no companion — one
    product per failing node wider than one item."""
    if value.is_identity():
        return []
    if hi - lo == 1:
        return [lo]
    mid = (lo + hi) // 2
    left = value_of(lo, mid)
    return (_plain_bisection(value_of, lo, mid, left)
            + _plain_bisection(value_of, mid, hi, value / left))


@pytest.fixture
def evaluations(toy, monkeypatch):
    """Every ``value_of`` call made through ``toy.scheme``, as its
    argument tuple — one entry per pairing product."""
    calls = []

    def counting(build):
        def counted_build(*args):
            value_of = build(*args)

            def counted(*slice_args, **weighting):
                calls.append(slice_args + tuple(weighting.items()))
                return value_of(*slice_args, **weighting)
            return counted
        return counted_build

    monkeypatch.setattr(toy.scheme, "_values", counting(toy.scheme._values))
    return calls


class TestLocalizerCost:
    """Products spent, not seconds: ``value_of`` evaluations per
    localization, against plain quotient bisection over the same
    items."""

    @staticmethod
    def _signature_costs(toy, evaluations, messages, signatures):
        """``(located, products, reference products)``."""
        del evaluations[:]
        located = toy.scheme.locate_invalid(
            toy.pk, messages, signatures, rng=toy.rng)
        spent = len(evaluations)
        del evaluations[:]
        value_of = toy.signature_values(
            messages, signatures, _coins(len(messages), toy.rng))
        count = len(messages)
        assert _plain_bisection(
            value_of, 0, count, value_of(0, count)) == located
        return located, spent, len(evaluations)

    def test_every_subset_up_to_ten_never_dearer_than_bisection(
            self, toy, evaluations):
        for size in range(2, 11):
            messages, honest = toy.signatures(size, set())
            _, forged = toy.signatures(size, set(range(size)))
            for flags in itertools.product((False, True), repeat=size):
                signatures = [bad if flag else good for flag, good, bad
                              in zip(flags, honest, forged)]
                located, spent, reference = self._signature_costs(
                    toy, evaluations, messages, signatures)
                assert located == toy.scan_signatures(messages, signatures)
                assert located == [position for position, flag
                                   in enumerate(flags) if flag]
                assert spent <= reference, (size, flags)

    def test_every_shape_up_to_thirty_three_never_dearer(
            self, toy, evaluations):
        for size in SIZES:
            for name, forged in _forgery_sets(size, toy.rng).items():
                located, spent, reference = self._signature_costs(
                    toy, evaluations, *toy.signatures(size, forged))
                assert located == sorted(forged)
                assert spent <= reference, (size, name)
                if size > 1 and not forged:
                    assert spent == 1

    def test_lone_forgery_is_one_product_beyond_the_root(
            self, toy, evaluations):
        for size in SIZES[1:]:
            messages, honest = toy.signatures(size, set())
            _, forged = toy.signatures(size, set(range(size)))
            for position in range(size):
                signatures = list(honest)
                signatures[position] = forged[position]
                del evaluations[:]
                assert toy.scheme.locate_invalid(
                    toy.pk, messages, signatures, rng=toy.rng
                ) == [position]
                assert evaluations == [
                    (0, size), (0, size, ("weighted", True))]

    def test_share_level_descends_without_a_companion(
            self, toy, evaluations):
        """Several signers' items: ``locate_invalid_partials`` hands
        :func:`_descend` no companion — its products are exactly plain
        bisection's over the signer-major order, none of them weighted.
        One signer's items (what ``combine_window`` asks about): a
        failing root gets its companion, so a lone forgery is two
        products wherever it sits and no shape is dearer than plain
        bisection."""
        for size in SIZES:
            for name, forged in _forgery_sets(size, toy.rng).items():
                items = toy.partials(size, forged)
                del evaluations[:]
                assert toy.scheme.locate_invalid_partials(
                    toy.pk, toy.vks, items, rng=toy.rng) == sorted(forged)
                spent = list(evaluations)
                if size == 1:
                    assert spent == []          # a plain share_verify
                    continue
                order = sorted(range(size),
                               key=lambda position: items[position][1].index)
                del evaluations[:]
                value_of = toy.partial_values(
                    [items[position] for position in order],
                    _coins(size, toy.rng))
                located = _plain_bisection(
                    value_of, 0, size, value_of(0, size))
                assert sorted(order[offset] for offset in located) == \
                    sorted(forged)
                assert spent == evaluations, (size, name)
        for size in SIZES[1:]:
            for name, forged in _forgery_sets(size, toy.rng).items():
                items = toy.partials(size, forged, signers=(2,))
                del evaluations[:]
                assert toy.scheme.locate_invalid_partials(
                    toy.pk, toy.vks, items, rng=toy.rng) == sorted(forged)
                spent = list(evaluations)
                assert spent[:2] == [(0, size)] + (
                    [(0, size, ("weighted", True))] if forged else [])
                if len(forged) <= 1:
                    assert len(spent) == 1 + len(forged)
                del evaluations[:]
                value_of = toy.partial_values(items, _coins(size, toy.rng))
                _plain_bisection(value_of, 0, size, value_of(0, size))
                assert len(spent) <= len(evaluations), (size, name)


class _Window:
    """One seeded window for ``combine_window`` with its partials laid
    out per ``(position, signer)`` — forged where ``forged`` says so —
    plus the recipe each position was built from."""

    RING = (1, 2, 3, 4, 5)
    ROGUE = 9                                   # no verification key
    RECIPES = ("quorum", "quorum", "rotated", "spares", "duplicate_first",
               "duplicate_last", "rogue", "short")

    def __init__(self, toy, size, tag, forged=None, recipes=None):
        """``forged``: ``(position, signer)`` pairs, ``recipes``: one
        per position — both drawn from ``toy.rng`` when not given."""
        rng = toy.rng
        self.toy = toy
        self.messages = [b"robust %s %d" % (tag, position)
                         for position in range(size)]
        if forged is None:
            forgers = rng.sample(self.RING, rng.choice((1, 1, 2, 2, 3)))
            forged = {(position, signer) for position in range(size)
                      for signer in forgers if rng.random() < 0.6}
        self.forged = forged
        self.table = {}
        for position, message in enumerate(self.messages):
            for signer in self.RING:
                partial = toy.share_sign(signer, message)
                if (position, signer) in self.forged:
                    partial = self.forge(partial)
                self.table[position, signer] = partial
        self.recipes = recipes or [
            rng.choice(self.RECIPES) for _ in range(size)]
        self.windows = [(message, self.carried(position, recipe))
                        for position, (message, recipe)
                        in enumerate(zip(self.messages, self.recipes))]

    def forge(self, partial):
        shift = self.toy.g ** self.toy.rng.randrange(1, 1 << 32)
        return PartialSignature(index=partial.index, z=partial.z * shift,
                                r=partial.r)

    def carried(self, position, recipe):
        """The partials a request arrives with."""
        rng = self.toy.rng
        quorum = [self.table[position, signer] for signer in (1, 2, 3)]
        if recipe == "rotated":
            return [self.table[position, signer] for signer in (4, 5, 1)]
        if recipe == "spares":
            return [self.table[position, signer]
                    for signer in rng.sample(self.RING, rng.choice((4, 5)))]
        if recipe == "duplicate_first":         # a forged 1, then the real one
            return [self.forge(quorum[0])] + quorum
        if recipe == "duplicate_last":
            return quorum + [self.forge(quorum[0])]
        if recipe == "rogue":
            return [PartialSignature(index=self.ROGUE, z=quorum[0].z,
                                     r=quorum[0].r)] + quorum[1:]
        if recipe == "short":
            return quorum[:2]
        return quorum

    def top_up(self, message, asked, missing):
        position = self.messages.index(message)
        return [self.table[position, signer] for signer in self.RING
                if signer not in asked][:missing]

    def scan(self, top_up):
        """The reference: every partial put in use is judged by its own
        ``share_verify``; a bad one is dropped and the position refilled
        the way ``combine_window`` says it refills.  Flagged: a partial
        dropped, or the partials that arrived ran out (``top_up`` asked,
        or nobody to ask)."""
        toy, t = self.toy, self.toy.scheme.params.t
        expected, flagged = [], []
        for position, (message, carried) in enumerate(self.windows):
            queue = list(carried)
            asked = {partial.index for partial in queue}
            good, robust = {}, False
            while len(good) <= t:
                if not any(partial.index not in good for partial in queue):
                    robust = True
                    if top_up is not None:
                        more = top_up(message, asked, t + 1 - len(good))
                        asked.update(partial.index for partial in more)
                        queue.extend(more)
                usable = [partial for partial in queue
                          if partial.index not in good]
                if not usable:
                    break
                queue.remove(usable[0])
                vk = toy.vks.get(usable[0].index)
                if vk is not None and toy.scheme.share_verify(
                        toy.pk, vk, message, usable[0]):
                    good[usable[0].index] = usable[0]
                else:
                    robust = True
            complete = len(good) > t
            expected.append(toy.master_signature(message).to_bytes()
                            if complete else None)
            if robust:
                flagged.append(position)
        return expected, flagged


class TestRobustWindowSweep:
    """``combine_window`` against :meth:`_Window.scan`, windows of 1-6
    over a 3-of-5 ring, every position a random recipe (the quorum, a
    rotated quorum, spare partials, duplicate indices, a keyless
    signer, a request short before any check) under one to three
    forging signers — in the quorum, in the reserve the top-up draws
    from, or both."""

    ROUNDS = 40

    @staticmethod
    def _agree(window, top_up, suspects):
        toy = window.toy
        topped_up = set()

        def counting(message, asked, missing):
            # What ``ServiceHandle`` counts as ``fallback_combines``.
            topped_up.add(window.messages.index(message))
            return top_up(message, asked, missing)

        signatures, flagged = toy.scheme.combine_window(
            toy.pk, toy.vks, window.windows, rng=toy.rng,
            top_up=top_up and counting, suspects=suspects)
        expected = window.scan(top_up)
        context = (window.recipes, sorted(window.forged))
        assert [signature and signature.to_bytes()
                for signature in signatures] == expected[0], context
        assert flagged == expected[1], context
        assert topped_up <= set(flagged), context

    def test_same_bytes_and_flags_as_the_per_partial_scan(self, toy):
        remembered = Suspects()
        seen = set()
        for size in range(1, 7):
            for round_ in range(self.ROUNDS):
                window = _Window(toy, size, b"%d.%d" % (size, round_))
                seen.update(window.recipes)
                for top_up in (window.top_up, None):
                    # No memory, then whatever the windows so far left.
                    self._agree(window, top_up, None)
                    self._agree(window, top_up, remembered)
        assert seen == set(_Window.RECIPES) and remembered.last

    def test_combine_is_a_window_of_one(self, toy):
        """Robust ``combine`` on every recipe as a one-message window —
        garbage first, last or throughout, a forged duplicate before or
        after its honest twin, a keyless index, a short request — plus
        seeded forgers: the master-key signature wherever the scan
        finds t+1 honest partials among what arrived, ``CombineError``
        exactly where ``combine_window`` returns ``None``."""
        self._window_of_one(toy)

    def test_aggregate_combine_is_a_window_of_one(self, aggregate):
        """The same recipes under the Appendix G scheme, whose robust
        ``combine`` is the inherited Section 3 one over ``H(PK || M)``."""
        self._window_of_one(aggregate)

    def _window_of_one(self, toy):
        fixed = (set(), {(0, 1)}, {(0, 3)}, {(0, 1), (0, 2), (0, 3)})
        for recipe in _Window.RECIPES:
            for round_ in range(len(fixed) + self.ROUNDS // 4):
                window = _Window(
                    toy, 1, b"one %s %d" % (recipe.encode(), round_),
                    forged=fixed[round_] if round_ < len(fixed) else None,
                    recipes=[recipe])
                (expected,), _ = window.scan(None)
                (windowed,), _ = toy.scheme.combine_window(
                    toy.pk, toy.vks, window.windows, rng=toy.rng)
                context = (recipe, sorted(window.forged))
                assert (windowed and windowed.to_bytes()) == expected, \
                    context
                message, partials = window.windows[0]
                if expected is None:
                    with pytest.raises(CombineError):
                        toy.scheme.combine(toy.pk, toy.vks, message,
                                           partials, rng=toy.rng)
                    continue
                assert toy.scheme.combine(
                    toy.pk, toy.vks, message, partials, rng=toy.rng
                ).to_bytes() == expected, context

    def test_honest_windows_flag_nothing_and_convict_nobody(self, toy):
        remembered = Suspects()
        for size in range(1, 7):
            window = _Window(toy, size, b"honest %d" % size, forged=set(),
                             recipes=["rotated"] * size)
            signatures, flagged = toy.scheme.combine_window(
                toy.pk, toy.vks, window.windows, rng=toy.rng,
                suspects=remembered)
            assert flagged == [] and remembered.last is None
            assert [signature.to_bytes() for signature in signatures] == [
                toy.scheme.sign_with_master(toy.master, message).to_bytes()
                for message in window.messages]

    def test_the_last_convict_is_looked_at_first(self, toy, monkeypatch):
        """The last convict is the only state: signer 3 forging, cold,
        is reached after 1 and 2; remembered, before them; in the
        window right after a conviction, before the window check
        itself."""
        rounds = []
        locate = toy.scheme.locate_invalid_partials
        verify = toy.scheme.batch_verify
        monkeypatch.setattr(
            toy.scheme, "locate_invalid_partials",
            lambda pk, vks, items, rng=None: rounds.append(
                items[0][1].index) or locate(pk, vks, items, rng=rng))
        monkeypatch.setattr(
            toy.scheme, "batch_verify",
            lambda pk, messages, signatures, rng=None: rounds.append(
                "window") or verify(pk, messages, signatures, rng=rng))

        def run(forger, suspects, tag):
            window = _Window(
                toy, 4, tag, forged={(2, forger)} if forger else set(),
                recipes=["quorum"] * 4)
            del rounds[:]
            _, flagged = toy.scheme.combine_window(
                toy.pk, toy.vks, window.windows, rng=toy.rng,
                top_up=window.top_up, suspects=suspects)
            assert flagged == ([2] if forger else [])
            return list(rounds)

        remembered = Suspects()
        assert run(3, remembered, b"cold") == [
            "window", 1, 2, 3, "window"]
        assert (remembered.last, remembered.hot) == (3, True)
        assert run(3, remembered, b"hot") == [3, "window"]
        assert run(None, remembered, b"clean") == [3, "window"]
        assert (remembered.last, remembered.hot) == (3, False)
        assert run(None, remembered, b"cooled") == ["window"]
        assert run(2, remembered, b"other") == [
            "window", 3, 1, 2, "window"]
        assert (remembered.last, remembered.hot) == (2, True)

    def test_mutant_that_skips_the_recheck_emits_a_forged_top_up(
            self, toy, monkeypatch):
        """Top-ups enter unverified; the window re-check is what
        covers them.  A ``combine_window`` whose checks after the first
        always pass emits a signature combined from signer 4's forged
        top-up — and the sweep's comparison catches it."""
        window = _Window(toy, 3, b"mutant", forged={(1, 1), (1, 4)},
                         recipes=["quorum"] * 3)
        self._agree(window, window.top_up, None)
        verify = toy.scheme.batch_verify
        calls = []
        monkeypatch.setattr(
            toy.scheme, "batch_verify",
            lambda pk, messages, signatures, rng=None: bool(
                calls.append(1) or len(calls) > 1
                or verify(pk, messages, signatures, rng=rng)))
        with pytest.raises(AssertionError):
            self._agree(window, window.top_up, None)
        signatures, _ = toy.scheme.combine_window(
            toy.pk, toy.vks, window.windows, rng=toy.rng,
            top_up=window.top_up)
        assert not toy.scheme.verify(
            toy.pk, window.messages[1], signatures[1])


@pytest.mark.bn254
class TestLocalizerSweepBn254:
    def test_matches_the_scan_on_the_real_curve(self, bn254_group,
                                                session_seed):
        fixture = _Fixture(bn254_group, random.Random(
            0x10CA7E if session_seed is None else session_seed))
        fixture.sweep((1, 2, 5, 8))
