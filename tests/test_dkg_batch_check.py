"""The coined share check of every dealing round against checking each
dealing alone.

A receiver checks all the dealings it holds with one small-exponent
product per commitment lane (:func:`repro.sharing.pedersen_vss.
failing_shares`) and re-checks them one by one only when that product
fails.  Each case here runs one protocol twice at one seed, under one
corruption pattern: once as shipped and once with every check split
into batches of one (the reference).  Complaints, Q, shares, public
components and verification keys must be equal.  The coins come from
``secrets`` after the dealings are fixed: the caller's seeded stream and
the results never depend on them.  The cost cases count
exponentiations, not seconds, so no later change can fall back to
per-dealing checks unseen.
"""

import dataclasses
import random
import secrets

import pytest

import repro.core.dlin_scheme
import repro.dkg.dealing
import repro.dkg.gjkr_dkg
from repro.core.dlin_scheme import DLINParams, run_dlin_dkg
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.dkg.dealing import DealingPlayer
from repro.dkg.gjkr_dkg import run_gjkr_dkg
from repro.dkg.pedersen_dkg import run_pedersen_dkg
from repro.dkg.refresh import run_refresh
from repro.dkg.reshare import run_reshare
from repro.groups.api import GroupElement
from repro.groups.toy_backend import ToyElement, ToyGroup
from repro.net.adversary import Adversary
from repro.net.simulator import Message
from repro.sharing.pedersen_vss import DKG_COUNTERS, failing_shares

T, N = 2, 5

#: The modules that call the check, each patched for the reference run.
CALLERS = (repro.dkg.dealing, repro.core.dlin_scheme, repro.dkg.gjkr_dkg)


def _alone(group, generators, items):
    """The reference check: every item its own batch of one."""
    return [position for position, item in enumerate(items)
            if failing_shares(group, generators, [item])]


# -- corruption patterns --------------------------------------------------

def _bump(shares, secret=0, slot=0):
    """The same shares with one scalar off by one."""
    shares = [list(share) for share in shares]
    shares[secret][slot] += 1
    return [tuple(share) for share in shares]


def _bad_shares(targets, slot=0):
    """``{(dealer, receiver), ...}`` get their first secret's scalar
    ``slot`` bumped."""
    def mutate(message):
        if (message.kind == "shares"
                and (message.sender, message.recipient) in targets):
            return Message(message.sender, message.recipient, "shares",
                           _bump(message.payload, slot=slot))
        return message
    return {dealer for dealer, _ in targets}, mutate


def _bad_feldman(group):
    """Dealer 1's Feldman coefficient A_1 is off by one generator."""
    def mutate(message):
        if message.kind == "feldman" and message.sender == 1:
            feldman = list(message.payload["feldman"])
            feldman[1] = feldman[1] * group.g2_generator()
            return Message(1, None, "feldman", {"feldman": feldman})
        return message
    return {1}, mutate


PATTERNS = {
    "none": lambda group: (set(), None),
    "one_share": lambda group: _bad_shares({(1, 2)}),
    "one_dealer_two_receivers": lambda group: _bad_shares({(1, 2), (1, 3)}),
    "two_dealers": lambda group: _bad_shares({(1, 2), (4, 2)}),
    "every_share": lambda group: _bad_shares(
        {(1, j) for j in range(2, N + 1)}),
}
DLIN_ONLY = {"bad_lane": lambda group: _bad_shares({(1, 2)}, slot=2)}
GJKR_ONLY = {"bad_feldman": _bad_feldman}


class Corrupter(Adversary):
    """Corrupts ``dealers`` once they dealt and keeps running their
    captured players honestly, passing every outbound message through
    ``mutate``: complaints get honest answers."""

    def __init__(self, dealers, mutate):
        super().__init__(max_corruptions=len(dealers))
        self.dealers = sorted(dealers)
        self.mutate = mutate

    def act(self, round_no, honest_messages, deliveries):
        super().act(round_no, honest_messages, deliveries)
        own = []
        for index in self.dealers:
            if round_no == 0:
                self.corrupt(index)
                own += [m for m in honest_messages if m.sender == index]
                continue
            player = self._network.players[index]
            inbox = [m for m in deliveries
                     if m.is_broadcast or m.recipient == index]
            player.record_round(inbox)
            own += player.on_round(round_no, inbox)
        return [self.mutate(message) for message in own]


# -- protocols ------------------------------------------------------------

def _deployed(group, seed):
    scheme = LJYThresholdScheme(ThresholdParams.generate(group, T, N))
    return scheme.params, *scheme.dealer_keygen(rng=random.Random(seed))


def _dkg(group, adversary, rng):
    p = ThresholdParams.generate(group, T, N)
    return run_pedersen_dkg(group, p.g_z, p.g_r, T, N,
                            adversary=adversary, rng=rng)[1]


def _refresh(group, adversary, rng):
    p, _pk, shares, vks = _deployed(group, 31)
    return run_refresh(group, p.g_z, p.g_r, T, N, shares, vks,
                       adversary=adversary, rng=rng)[2]


def _reshare(group, adversary, rng):
    p, pk, shares, vks = _deployed(group, 32)
    return run_reshare(group, p.g_z, p.g_r, T, T, range(1, N + 1), shares,
                       vks, public_key=pk, adversary=adversary, rng=rng)[2]


def _gjkr(group, adversary, rng):
    p = ThresholdParams.generate(group, T, N)
    return run_gjkr_dkg(group, p.g_z, p.g_r, T, N,
                        adversary=adversary, rng=rng)[1]


def _dlin(group, adversary, rng):
    return run_dlin_dkg(DLINParams.generate(group, T, N),
                        adversary=adversary, rng=rng)[1]


PROTOCOLS = {"dkg": _dkg, "refresh": _refresh, "reshare": _reshare,
             "gjkr": _gjkr, "dlin": _dlin}

CASES = [(protocol, pattern) for protocol in sorted(PROTOCOLS)
         for pattern in sorted(PATTERNS)]
CASES += [("dlin", pattern) for pattern in DLIN_ONLY]
CASES += [("gjkr", pattern) for pattern in GJKR_ONLY]


def _canon(value):
    """Group elements as bytes, dataclasses as their fields, sets sorted."""
    if isinstance(value, GroupElement):
        return value.to_bytes()
    if dataclasses.is_dataclass(value):
        return _canon(vars(value))
    if isinstance(value, dict):
        return sorted((key, _canon(item)) for key, item in value.items())
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def _outcome(protocol, pattern, group, seed):
    """Every honest player's complaints, GJKR's extraction complaints,
    Q and finalized output."""
    dealers, mutate = {**PATTERNS, **DLIN_ONLY, **GJKR_ONLY}[pattern](group)
    adversary = Corrupter(dealers, mutate) if dealers else None
    network = PROTOCOLS[protocol](group, adversary, random.Random(seed))
    return {index: _view(network.players[index])
            for index in network.honest_indices()}


def _view(player):
    return _canon([player.complaints_against,
                   getattr(player, "extraction_complaints", {}),
                   player.qualified, player.finalize()])


def _reference(monkeypatch, protocol, pattern, group, seed):
    with monkeypatch.context() as patch:
        for module in CALLERS:
            patch.setattr(module, "failing_shares", _alone)
        return _outcome(protocol, pattern, group, seed)


def _check_against_reference(monkeypatch, protocol, pattern, group, seed):
    before = dict(DKG_COUNTERS)
    batched = _outcome(protocol, pattern, group, seed)
    spent = {key: DKG_COUNTERS[key] - before[key] for key in before}
    assert batched == _reference(monkeypatch, protocol, pattern, group, seed)
    assert spent["batched_checks"] > 0
    # A bad share makes a batch fail; nothing else may.
    assert (spent["fallbacks"] > 0) == (pattern != "none")
    return batched


@pytest.mark.parametrize("protocol,pattern", CASES)
def test_batch_equals_checking_each_dealing_alone(
        monkeypatch, protocol, pattern, toy_group, session_seed):
    seed = 17 if session_seed is None else session_seed
    outcome = _check_against_reference(
        monkeypatch, protocol, pattern, toy_group, seed)
    complained = any(view[0] or view[1] for view in outcome.values())
    assert complained == (pattern != "none")
    qualified = {index: view[2] for index, view in outcome.items()}
    # Four complaints against dealer 1 exceed t; every other forger
    # answered its complaints and stays in Q.
    assert all((1 in q) == (pattern != "every_share")
               for q in qualified.values())


@pytest.mark.bn254
def test_batch_equals_reference_on_bn254(monkeypatch, bn254_group):
    _check_against_reference(
        monkeypatch, "dkg", "two_dealers", bn254_group, 23)


# -- the coins stay off the seeded stream ---------------------------------

#: The next 64 bits of ``random.Random(7)`` after each run, as they were
#: when every dealing was checked alone: the batched check draws nothing
#: from the caller's stream.
NEXT_DRAW = 0xe28af60465f42986


@pytest.mark.parametrize("run", ["dkg", "refresh", "reshare"])
def test_callers_next_draw_unchanged(run, toy_group):
    p, pk, shares, vks = _deployed(toy_group, 0)
    rng = random.Random(7)
    if run == "dkg":
        run_pedersen_dkg(toy_group, p.g_z, p.g_r, T, N, rng=rng)
    elif run == "refresh":
        run_refresh(toy_group, p.g_z, p.g_r, T, N, shares, vks, rng=rng)
    else:
        run_reshare(toy_group, p.g_z, p.g_r, T, T, [2, 3, 4, 5, 6], shares,
                    vks, public_key=pk, rng=rng)
    assert rng.getrandbits(64) == NEXT_DRAW


@pytest.mark.parametrize("pattern", ["none", "two_dealers"])
def test_coin_streams_do_not_reach_results(monkeypatch, pattern, toy_group):
    outcomes = []
    for stream in (1, 2):
        drawn = []
        source = random.Random(stream)

        def randbelow(bound, source=source, drawn=drawn):
            drawn.append(bound)
            return source.randrange(bound)

        with monkeypatch.context() as patch:
            patch.setattr(secrets, "randbelow", randbelow)
            outcomes.append(_outcome("dkg", pattern, toy_group, 41))
        assert drawn and set(drawn) == {1 << 64}
    assert outcomes[0] == outcomes[1]


# -- what a receiver round costs ------------------------------------------

class TestReceiverRoundCost:
    """Exponentiations per complain round on the toy backend: calls of
    ``multi_exp`` (one product), ``multi_exp_windows`` (every dealing
    evaluated at the receiver's index in one call) and ``**``."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """Per complain round, ``(receiver, calls by kind)``."""
        calls = {"multi_exp": 0, "windows": 0, "exp": 0}
        inner = {"depth": 0}
        multi_exp = ToyGroup.multi_exp
        windows = ToyGroup.multi_exp_windows
        exp = ToyElement.exp

        def counted(kind, method):
            def call(*args):
                if not inner["depth"]:
                    calls[kind] += 1
                inner["depth"] += 1
                try:
                    return method(*args)
                finally:
                    inner["depth"] -= 1
            return call

        monkeypatch.setattr(ToyGroup, "multi_exp",
                            counted("multi_exp", multi_exp))
        monkeypatch.setattr(ToyGroup, "multi_exp_windows",
                            counted("windows", windows))
        monkeypatch.setattr(ToyElement, "exp", counted("exp", exp))
        spent = []
        complain = DealingPlayer._complain

        def measured(player):
            before = dict(calls)
            out = complain(player)
            spent.append((player.index, {
                kind: calls[kind] - before[kind] for kind in calls}))
            return out

        monkeypatch.setattr(DealingPlayer, "_complain", measured)
        return spent

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_honest_round_is_one_product_per_side(self, rounds, n,
                                                  toy_group):
        p = ThresholdParams.generate(toy_group, T, n)
        run_pedersen_dkg(toy_group, p.g_z, p.g_r, T, n,
                         rng=random.Random(n))
        assert len(rounds) == n
        for _receiver, spent in rounds:
            assert spent == {"multi_exp": 2, "windows": 1, "exp": 0}

    def test_dlin_pays_once_per_lane(self, rounds, toy_group):
        run_dlin_dkg(DLINParams.generate(toy_group, T, N),
                     rng=random.Random(3))
        for _receiver, spent in rounds:
            assert spent == {"multi_exp": 4, "windows": 2, "exp": 0}

    @pytest.mark.parametrize("n", [5, 7])
    def test_forged_dealing_costs_batch_plus_one_check_each(
            self, rounds, n, toy_group):
        p = ThresholdParams.generate(toy_group, T, n)
        before = dict(DKG_COUNTERS)
        dealers, mutate = _bad_shares({(1, 2)})
        run_pedersen_dkg(toy_group, p.g_z, p.g_r, T, n,
                         adversary=Corrupter(dealers, mutate),
                         rng=random.Random(n))
        dealings = (n - 1) * 2     # two pairs from every other dealer
        for receiver, spent in rounds:
            if receiver == 2:
                assert spent == {"multi_exp": 2 + dealings,
                                 "windows": 1 + dealings, "exp": 0}
            else:
                assert spent == {"multi_exp": 2, "windows": 1, "exp": 0}
        assert DKG_COUNTERS["fallbacks"] - before["fallbacks"] == 1
        assert (DKG_COUNTERS["single_checks"] - before["single_checks"]
                == dealings)
