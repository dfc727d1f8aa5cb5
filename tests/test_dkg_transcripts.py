"""Pinned transcripts of every key-lifecycle protocol.

Each case runs one protocol on the toy backend at a fixed seed and
hashes what it produced: the qualified set, every honest player's
share values, the public components, the verification keys and the
network's communication summary (rounds, messages, estimated bytes).
Any drift in randomness order, message shape or combine arithmetic
changes a digest.
"""

import hashlib
import random

import pytest

from repro.core.aggregation import (
    AggThresholdParams, dkg_result_to_agg_keys, run_agg_dkg,
)
from repro.core.dlin_scheme import DLINParams, run_dlin_dkg
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.dkg.gjkr_dkg import run_gjkr_dkg
from repro.dkg.pedersen_dkg import PedersenDKGPlayer, run_pedersen_dkg
from repro.dkg.refresh import run_refresh
from repro.dkg.reshare import ResharePlayer, run_reshare
from repro.groups.api import GroupElement
from repro.net.adversary import ScriptedAdversary
from repro.net.simulator import private


def _canon(value) -> str:
    """A canonical text form: group elements as hex bytes, dicts sorted."""
    if value is None:
        return "N"
    if isinstance(value, GroupElement):
        return value.to_bytes().hex()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{key}:{_canon(value[key])}" for key in sorted(value)) + "}"
    raise TypeError(f"no canonical form for {type(value)!r}")


def _digest(network, parts) -> str:
    summary = network.metrics.summary()
    text = _canon(parts) + _canon(
        [summary[key] for key in sorted(summary)])
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _share(share):
    return [share.index, share.a_1, share.b_1, share.a_2, share.b_2]


def _vks(vks):
    return {j: [vk.v_1, vk.v_2] for j, vk in vks.items()}


def _qualified(network):
    return {i: network.players[i].finalize().qualified
            for i in network.honest_indices()}


def _dkg_parts(results):
    return {i: [r.qualified, r.share_pairs, r.public_components,
                r.verification_keys] for i, r in results.items()}


def _setup(group):
    return group.derive_g2("pin:g_z"), group.derive_g2("pin:g_r")


def _dealt(group, rng, t=2, n=5):
    scheme = LJYThresholdScheme(ThresholdParams.generate(group, t, n))
    return scheme, *scheme.dealer_keygen(rng=rng)


def _dkg_two_pairs(group):
    g_z, g_r = _setup(group)
    results, network = run_pedersen_dkg(
        group, g_z, g_r, 2, 5, rng=random.Random(101))
    return _digest(network, _dkg_parts(results))


def _dkg_one_pair(group):
    g_z, g_r = _setup(group)
    results, network = run_pedersen_dkg(
        group, g_z, g_r, 2, 5, num_pairs=1, rng=random.Random(102))
    return _digest(network, _dkg_parts(results))


def _refresh_after_renumbering(group):
    rng = random.Random(103)
    scheme, pk, shares, vks = _dealt(group, rng)
    p = scheme.params
    shares, vks, _ = run_reshare(
        group, p.g_z, p.g_r, 2, 2, [2, 3, 4, 5, 6], shares, vks,
        public_key=pk, rng=rng)
    new_shares, new_vks, network = run_refresh(
        group, p.g_z, p.g_r, 2, 5, shares, vks, rng=rng)
    return _digest(network, [
        _qualified(network),
        {i: _share(s) for i, s in new_shares.items()}, _vks(new_vks)])


def _reshare_new_t(group):
    rng = random.Random(104)
    scheme, pk, shares, vks = _dealt(group, rng)
    p = scheme.params
    new_shares, new_vks, network = run_reshare(
        group, p.g_z, p.g_r, 2, 3, range(1, 8), shares, vks,
        public_key=pk, rng=rng)
    return _digest(network, [
        _qualified(network),
        {i: _share(s) for i, s in new_shares.items()}, _vks(new_vks)])


def _gjkr(group):
    g_z, g_r = _setup(group)
    results, network = run_gjkr_dkg(
        group, g_z, g_r, 2, 5, rng=random.Random(105))
    return _digest(network, {
        i: [r.qualified, r.share, r.public_key, r.verification_keys]
        for i, r in results.items()})


def _dlin(group):
    params = DLINParams.generate(group, t=2, n=5)
    results, network = run_dlin_dkg(params, rng=random.Random(106))
    return _digest(network, {
        i: [qualified, list(pk.g_ks), list(pk.h_ks), share.index,
            [list(triple) for triple in share.triples],
            {j: [list(vk.u_ks), list(vk.z_ks)] for j, vk in vks.items()}]
        for i, (pk, share, vks, qualified) in results.items()})


def _appendix_g(group):
    params = AggThresholdParams.generate(group, 2, 5)
    results, network = run_agg_dkg(params, rng=random.Random(107))
    parts = _dkg_parts(results)
    for i, result in results.items():
        pk, _share_, _vks_ = dkg_result_to_agg_keys(params, result)
        parts[i].append([pk.g_1, pk.g_2, pk.z, pk.r])
    return _digest(network, parts)


def _faulty(group):
    """Dealer 1 sends player 2 one bad share, then answers the complaint
    (the T4b scenario)."""
    rng = random.Random(108)
    g_z, g_r = _setup(group)

    def script(adversary, round_no, honest_messages, deliveries):
        if round_no == 0:
            adversary.corrupt(1)
            adversary.minion = PedersenDKGPlayer(
                1, group, g_z, g_r, 2, 5, rng=rng)
            out = []
            for message in adversary.minion.on_round(0, []):
                if message.kind == "shares" and message.recipient == 2:
                    out.append(private(1, 2, "shares", [
                        (a + 1, b) for a, b in message.payload]))
                else:
                    out.append(message)
            return out
        inbox = [m for m in deliveries
                 if m.is_broadcast or m.recipient == 1]
        adversary.minion.record_round(inbox)
        return adversary.minion.on_round(round_no, inbox)

    results, network = run_pedersen_dkg(
        group, g_z, g_r, 2, 5, adversary=ScriptedAdversary(script), rng=rng)
    assert network.metrics.communication_rounds == 3
    return _digest(network, _dkg_parts(results))


def _reshare_faulty(group):
    """Dealer 1 sends receiver 2 a bad sub-share, then answers the
    complaint: the reshare's complaint and response rounds."""
    rng = random.Random(109)
    scheme, pk, shares, vks = _dealt(group, rng)
    p = scheme.params

    def script(adversary, round_no, honest_messages, deliveries):
        if round_no == 0:
            adversary.corrupt(1)
            adversary.minion = ResharePlayer(
                1, group, p.g_z, p.g_r, 2, 2, sorted(shares),
                [1, 2, 3, 4, 5], vks, old_share=shares[1], rng=rng)
            out = []
            for message in adversary.minion.on_round(0, []):
                if message.kind == "shares" and message.recipient == 2:
                    out.append(private(1, 2, "shares", [
                        (a + 1, b) for a, b in message.payload]))
                else:
                    out.append(message)
            return out
        inbox = [m for m in deliveries
                 if m.is_broadcast or m.recipient == 1]
        adversary.minion.record_round(inbox)
        return adversary.minion.on_round(round_no, inbox)

    new_shares, new_vks, network = run_reshare(
        group, p.g_z, p.g_r, 2, 2, [1, 2, 3, 4, 5], shares, vks,
        public_key=pk, adversary=ScriptedAdversary(script), rng=rng)
    assert network.metrics.communication_rounds == 3
    return _digest(network, [
        _qualified(network),
        {i: _share(s) for i, s in new_shares.items()}, _vks(new_vks)])


PINNED = {
    "dkg_two_pairs": (
        _dkg_two_pairs,
        "4a709dc4c9d9ee3539c2357200fa6d86dd9b2653766cf338ff67bf437a2bc035"),
    "dkg_one_pair": (
        _dkg_one_pair,
        "92f910ba38ba1b14608367bebaa73587bef6e1674fc451d87bd5965e9032f92f"),
    "refresh_after_renumbering": (
        _refresh_after_renumbering,
        "c3df89a3ee8a410580fcf4589548ef246c3f3c61f09eda111e1830a36f70ef70"),
    "reshare_new_t": (
        _reshare_new_t,
        "e87f7a8acdfedb5234477a71c2a1f6f3cf2c20092f85bf89757ac4048c5ab17e"),
    "gjkr": (
        _gjkr,
        "e01241c8c3f925ebcec4211f74672cdc17c486c40a5308a162a6ae1c76069529"),
    "dlin": (
        _dlin,
        "e99e2b2e650c381e8d2fc8b415d425473f7c257c1dc55bab3c6b62615a13a85f"),
    "appendix_g": (
        _appendix_g,
        "a8cb6195ed5cc1c43b38599c459474c97e1308cfdbdc45fa3977f380aac32a6c"),
    "faulty_complaint_response": (
        _faulty,
        "6e7c3c1c35d40b864f6cf8a78a439019a54445beb1952300e6e9949dd799d66b"),
    "reshare_faulty": (
        _reshare_faulty,
        "f2bafb9c6dd574171c84dce343eb8ae07427a69f8636fa683e33f8116b132c20"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_transcript_is_pinned(case, toy_group):
    run, expected = PINNED[case]
    assert run(toy_group) == expected
