"""Malformed payloads from one corrupt player never abort honest ones.

Player 1 is corrupted after it deals; the adversary then forwards its
honest messages with one payload replaced by junk.  Whatever the junk,
every honest player must finish the protocol and agree on the qualified
set.  Junk dealings and junk responses disqualify player 1 as a dealer;
a junk complaint is ignored, so player 1 stays qualified.
"""

import random

import pytest

from repro.core.dlin_scheme import DLINParams, run_dlin_dkg
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.dkg.gjkr_dkg import run_gjkr_dkg
from repro.dkg.pedersen_dkg import run_pedersen_dkg
from repro.dkg.refresh import run_refresh
from repro.dkg.reshare import run_reshare
from repro.net.adversary import Adversary
from repro.net.simulator import Message, broadcast

T, N = 2, 5


def _bump_first(shares):
    """The same shares with the first scalar off by one."""
    first = list(shares[0])
    first[0] += 1
    return [tuple(first)] + list(shares[1:])


def _rewrite(rewrite):
    """Pass each outbound message through ``rewrite`` (message -> it or
    its junk replacement)."""
    return lambda round_no, own: [rewrite(message) for message in own]


@_rewrite
def _junk_commitments_dict(message):
    if message.kind == "commitments":
        return Message(1, None, "commitments", {})
    return message


@_rewrite
def _junk_commitments_list(message):
    if message.kind == "commitments":
        return Message(1, None, "commitments",
                       list(message.payload["commitments"]))
    return message


@_rewrite
def _junk_share_arity(message):
    if message.kind == "shares":
        return Message(1, message.recipient, "shares", [(1,), (2,)])
    return message


def _junk_complaint(round_no, own):
    return own + ([broadcast(1, "complaint", 7)] if round_no == 1 else [])


def _bad_share_then(response):
    """Player 2 gets one bad share; player 1 answers its complaint with
    ``response(payload)`` instead of the published shares."""

    @_rewrite
    def mutate(message):
        if message.kind == "shares" and message.recipient == 2:
            return Message(1, 2, "shares", _bump_first(message.payload))
        if message.kind == "response":
            return Message(1, None, "response", response(message.payload))
        return message

    return mutate


CASES = {
    "commitments-dict": (_junk_commitments_dict, False),
    "commitments-list": (_junk_commitments_list, False),
    "shares-arity": (_junk_share_arity, False),
    "complaint-int": (_junk_complaint, True),
    "response-int": (_bad_share_then(lambda payload: 7), False),
    "response-arity": (_bad_share_then(lambda payload: {
        "complainer": payload["complainer"],
        "shares": [(1,)] * len(payload["shares"])}), False),
}


class JunkingAdversary(Adversary):
    """Corrupts player 1 after it dealt and keeps running its captured
    player object honestly, passing each round's outbound messages
    through ``mutate``."""

    def __init__(self, mutate):
        super().__init__(max_corruptions=1)
        self.mutate = mutate

    def act(self, round_no, honest_messages, deliveries):
        super().act(round_no, honest_messages, deliveries)
        player = self._network.players[1]
        if round_no == 0:
            self.corrupt(1)
            own = [m for m in honest_messages if m.sender == 1]
        else:
            inbox = [m for m in deliveries
                     if m.is_broadcast or m.recipient == 1]
            player.record_round(inbox)
            own = player.on_round(round_no, inbox)
        return self.mutate(round_no, own)


def _deployed(group, rng):
    scheme = LJYThresholdScheme(ThresholdParams.generate(group, T, N))
    return scheme.params, *scheme.dealer_keygen(rng=rng)


def _run_dkg(group, adversary, rng):
    p = ThresholdParams.generate(group, T, N)
    _results, network = run_pedersen_dkg(
        group, p.g_z, p.g_r, T, N, adversary=adversary, rng=rng)
    return network


def _run_refresh(group, adversary, rng):
    p, _pk, shares, vks = _deployed(group, rng)
    _shares, _vks, network = run_refresh(
        group, p.g_z, p.g_r, T, N, shares, vks, adversary=adversary,
        rng=rng)
    return network


def _run_reshare(group, adversary, rng):
    p, pk, shares, vks = _deployed(group, rng)
    _shares, _vks, network = run_reshare(
        group, p.g_z, p.g_r, T, T, range(1, N + 1), shares, vks,
        public_key=pk, adversary=adversary, rng=rng)
    return network


def _run_gjkr(group, adversary, rng):
    p = ThresholdParams.generate(group, T, N)
    _results, network = run_gjkr_dkg(
        group, p.g_z, p.g_r, T, N, adversary=adversary, rng=rng)
    return network


def _run_dlin(group, adversary, rng):
    _results, network = run_dlin_dkg(
        DLINParams.generate(group, T, N), adversary=adversary, rng=rng)
    return network


def _qualified(result):
    return result[3] if isinstance(result, tuple) else result.qualified


PROTOCOLS = {
    "dkg": _run_dkg,
    "refresh": _run_refresh,
    "reshare": _run_reshare,
    "gjkr": _run_gjkr,
    "dlin": _run_dlin,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_malformed_payload_is_absent(protocol, case, toy_group):
    mutate, player_1_qualifies = CASES[case]
    network = PROTOCOLS[protocol](
        toy_group, JunkingAdversary(mutate), random.Random(5))
    qualified = {
        i: _qualified(network.players[i].finalize())
        for i in network.honest_indices()}
    assert sorted(qualified) == [2, 3, 4, 5]
    reference = qualified[2]
    assert all(q == reference for q in qualified.values())
    expected = [1, 2, 3, 4, 5] if player_1_qualifies else [2, 3, 4, 5]
    assert reference == expected
