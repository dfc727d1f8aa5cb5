"""The scenario catalog: end-to-end simulations over the real protocol.

Each ``run_*_scenario`` builds a fresh :class:`~repro.sims.kernel.
EventKernel` + :class:`~repro.sims.net.SimNet`, populates it with peers
that execute the repo's actual protocol implementations (the Pedersen
DKG and reshare round machines, ``share_sign`` / ``combine_window``
over real :class:`~repro.serialization.WireCodec` frames), runs to
quiescence, asserts the protocol-level invariants (honest agreement,
signatures verify) and returns a flat row of metrics plus the kernel's
trace digest — the determinism witness ``make sim-smoke`` compares
across processes.

Scenarios (see ``docs/SIMULATION.md`` for the catalog rationale):

========== ===========================================================
``dkg``     Dist-Keygen time-to-completion at large n over a 3-region
            WAN; lossy private channels exercise complaint/respond.
``quorum``  time-to-quorum for signing at n = 64/256/1024 under WAN
            latency and loss (open-loop exponential arrivals).
``robust``  robust combine under heavy loss + stragglers + forgers —
            every request must still produce a verifying signature.
``churn``   reshare to a shifted committee *under signing load* with
            an atomic epoch switch, plus the shard-ring remap cost.
``ci``      small fixed-seed composite (dkg n=64 + robust) gating CI.
========== ===========================================================

Everything here is a pure function of ``(scenario, seed, parameters)``:
all randomness flows from seeded :class:`random.Random` instances
(string seeds are hashed with SHA-512 by CPython, independent of
``PYTHONHASHSEED``), the clock is virtual, and no wall-clock time or
filesystem state leaks into results or digests.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence

from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.dkg.dealing import result_keys
from repro.dkg.pedersen_dkg import PedersenDKGPlayer, dkg_result_to_keys
from repro.dkg.reshare import ResharePlayer
from repro.groups import get_group
from repro.serialization import WireCodec
from repro.service.loadgen import percentile
from repro.service.shards import HashRing
from repro.sims.kernel import EventKernel, SimulationError
from repro.sims.links import LinkModel, make_link_model
from repro.sims.net import SimNet
from repro.sims.peers import (
    ROUND_COMPLAIN, CombinerPeer, RoundDrivenPeer, RoundSchedule, SignerPeer,
)

#: Fixed per-signature compute time charged by every simulated signer
#: (stragglers add on top); roughly a bn254 Share-Sign on one core.
SIGN_COMPUTE_US = 2_000


def _rng(seed: int, *tags) -> random.Random:
    """An independent deterministic stream named by its tags."""
    return random.Random(":".join([str(seed)] + [str(tag) for tag in tags]))


def _max_base_latency_us(links: LinkModel) -> int:
    if links.region_latency_us is not None:
        return max(max(row) for row in links.region_latency_us)
    return links.profile.latency_base_us


def _round_window_us(links: LinkModel, n: int, t: int,
                     start_us: int = 0) -> RoundSchedule:
    """Analytic global round deadlines for one DKG/reshare execution.

    The deal round's wall time is dominated by each dealer serializing
    n-1 dealing copies through its uplink; the window doubles that plus
    a generous latency/jitter tail, so under the configured loss rate
    essentially every surviving message makes its round.  (A message
    that misses anyway just becomes a complaint — correctness never
    depends on the estimate, only the reported times do.)
    """
    commit_bytes = 2 * (t + 1) * 32 + 96
    share_bytes = 4 * 32 + 96
    per_dealer = (n - 1) * (commit_bytes + share_bytes)
    tx_us = LinkModel._tx_us(per_dealer, links.profile.uplink_bps)
    rx_us = LinkModel._tx_us(per_dealer, links.profile.downlink_bps)
    tail_us = _max_base_latency_us(links) + 8 * links.profile.latency_jitter_us
    window = 2 * (tx_us + rx_us + tail_us) + 100_000
    return RoundSchedule(
        t_complain_us=start_us + window,
        t_respond_us=start_us + 2 * window,
        t_finalize_us=start_us + 3 * window,
    )


# ---------------------------------------------------------------------------
# DKG at scale
# ---------------------------------------------------------------------------

def run_dkg_scenario(seed: int, n: int, t: int, profile: str = "wan",
                     loss: float = 0.0, group_name: str = "toy") -> Dict:
    """Dist-Keygen with n peers over simulated links.

    Every honest peer must finalize, agree on the qualified set, the
    public key and all verification keys, and a quorum of the resulting
    shares must produce a verifying signature — the scenario raises
    :class:`SimulationError` otherwise.
    """
    group = get_group(group_name)
    params = ThresholdParams.generate(group, t, n)
    scheme = LJYThresholdScheme(params)
    kernel = EventKernel(seed)
    peer_ids = list(range(1, n + 1))
    links = make_link_model(profile, kernel.rng, peer_ids, loss=loss)
    net = SimNet(kernel, links)
    schedule = _round_window_us(links, n, t)

    state = {
        "qualified": None, "publics": None, "vk_ref": None,
        "mismatches": 0, "finalized": 0, "complaints_seen": 0,
        "keys": None, "shares": [],
    }

    def on_finalize(peer: RoundDrivenPeer) -> None:
        result = peer.result
        state["finalized"] += 1
        state["complaints_seen"] = max(
            state["complaints_seen"], len(peer.buffers[ROUND_COMPLAIN]))
        if state["qualified"] is None:
            state["qualified"] = tuple(result.qualified)
            state["publics"] = list(result.public_components)
            state["vk_ref"] = result.verification_keys
        else:
            if (tuple(result.qualified) != state["qualified"]
                    or list(result.public_components) != state["publics"]
                    or result.verification_keys != state["vk_ref"]):
                state["mismatches"] += 1
        if len(state["shares"]) < t + 1:
            public_key, share, vks = dkg_result_to_keys(scheme, result)
            state["shares"].append(share)
            if state["keys"] is None:
                state["keys"] = (public_key, vks)
        # Free the bulk of the per-peer state: at n=1024 the n x n
        # dealing matrix is the memory high-water mark.
        peer.result = None
        peer.player._result = None
        peer.player.received_commitments.clear()
        peer.player.received_shares.clear()
        peer.player.dealings.clear()
        peer.player.history.clear()
        peer.player._column_cache.clear()
        peer.buffers = {0: [], 1: [], 2: []}

    peers = [
        RoundDrivenPeer(
            i, net,
            PedersenDKGPlayer(i, group, params.g_z, params.g_r, t, n,
                              rng=_rng(seed, "dkg-player", i)),
            schedule, expected_deal_messages=2 * n - 1,
            on_finalize=on_finalize)
        for i in peer_ids
    ]
    for peer in peers:
        kernel.schedule_at(0, peer.start)
    kernel.run()

    if state["finalized"] != n:
        raise SimulationError(
            f"only {state['finalized']}/{n} peers finalized the DKG")
    if state["mismatches"]:
        raise SimulationError(
            f"{state['mismatches']} peers disagreed on the DKG output")

    # End-to-end: the distributively-generated shares must sign.
    public_key, vks = state["keys"]
    message = b"sim-dkg:%d:%d" % (seed, n)
    partials, = scheme.share_sign_many(state["shares"], [message])
    signature = scheme.combine(public_key, vks, message, partials)
    if not scheme.verify(public_key, message, signature):
        raise SimulationError("DKG-derived signature failed to verify")

    deal_ms = [peer.deal_complete_us / 1000.0 for peer in peers
               if peer.deal_complete_us is not None]
    finalize_ms = max(peer.finalized_at_us for peer in peers) / 1000.0
    return {
        "scenario": "dkg", "seed": seed, "n": n, "t": t,
        "profile": profile, "loss": loss,
        "deal_p50_ms": percentile(deal_ms, 50) if deal_ms else float("nan"),
        "deal_p95_ms": percentile(deal_ms, 95) if deal_ms else float("nan"),
        "deal_done": len(deal_ms),
        "finalize_ms": finalize_ms,
        "complaints": state["complaints_seen"],
        "qualified": len(state["qualified"]),
        "messages": net.traffic.messages,
        "drops": net.drops,
        "mbytes": net.traffic.bytes_total / 1e6,
        "events": kernel.events_run,
        "digest": kernel.digest(),
    }


# ---------------------------------------------------------------------------
# The signing tier (shared by quorum / robust / churn)
# ---------------------------------------------------------------------------

def _signing_net(seed: int, n: int, profile: str, loss: float):
    kernel = EventKernel(seed)
    signer_ids = list(range(1, n + 1))
    links = make_link_model(profile, kernel.rng, ["combiner"] + signer_ids,
                            loss=loss)
    return kernel, SimNet(kernel, links), signer_ids


def _schedule_arrivals(kernel: EventKernel, combiner: CombinerPeer,
                       seed: int, label: str, requests: int,
                       mean_interval_us: int) -> None:
    """Open-loop arrivals: exponential inter-arrival times drawn from a
    dedicated stream so load is independent of network randomness."""
    arrivals = _rng(seed, label, "arrivals")
    at_us = 0
    for request_id in range(requests):
        at_us += int(arrivals.expovariate(1.0 / mean_interval_us))
        kernel.schedule_at(at_us, combiner.submit, request_id,
                           b"%s:%d:req:%d" % (
                               label.encode("ascii"), seed, request_id))


def _signing_row(label: str, combiner: CombinerPeer, net: SimNet,
                 kernel: EventKernel, requests: int) -> Dict:
    done = combiner.completed()
    if len(done) != requests:
        raise SimulationError(
            f"{label}: only {len(done)}/{requests} requests signed")
    lat = combiner.latencies_ms()
    retries = sum(r.retries for r in combiner.requests.values())
    return {
        "scenario": label,
        "requests": requests,
        "quorum_p50_ms": percentile(lat["quorum_ms"], 50),
        "quorum_p95_ms": percentile(lat["quorum_ms"], 95),
        "signed_p50_ms": percentile(lat["signed_ms"], 50),
        "signed_p95_ms": percentile(lat["signed_ms"], 95),
        "signed_max_ms": max(lat["signed_ms"]),
        "windows": combiner.windows_flushed,
        "flagged": combiner.flagged_positions,
        "rejected": combiner.rejected_blobs,
        "retries": retries,
        "messages": net.traffic.messages,
        "drops": net.drops,
        "mbytes": net.traffic.bytes_total / 1e6,
        "events": kernel.events_run,
        "digest": kernel.digest(),
    }


def run_quorum_scenario(seed: int, n_values: Sequence[int] = (64, 256, 1024),
                        t: int = 16, requests: int = 32,
                        profile: str = "wan", loss: float = 0.01,
                        mean_interval_us: int = 20_000,
                        group_name: str = "toy") -> Dict:
    """Time-to-quorum (t+1 distinct partials back at the combiner) as a
    function of committee size, under WAN latency and light loss."""
    group = get_group(group_name)
    codec = WireCodec(group)
    rows: List[Dict] = []
    for n in n_values:
        params = ThresholdParams.generate(group, t, n)
        scheme = LJYThresholdScheme(params)
        public_key, shares, vks = scheme.dealer_keygen(
            rng=_rng(seed, "quorum-keys", n))
        kernel, net, signer_ids = _signing_net(seed, n, profile, loss)
        for i in signer_ids:
            SignerPeer(i, net, scheme, shares[i], codec,
                       compute_delay_us=SIGN_COMPUTE_US)
        combiner = CombinerPeer(
            "combiner", net, scheme, public_key, vks, signer_ids, codec)
        _schedule_arrivals(kernel, combiner, seed, f"quorum{n}",
                           requests, mean_interval_us)
        kernel.run()
        row = _signing_row("quorum", combiner, net, kernel, requests)
        row.update({"seed": seed, "n": n, "t": t,
                    "profile": profile, "loss": loss})
        rows.append(row)
    digest = hashlib.sha256(
        "".join(row["digest"] for row in rows).encode("ascii")).hexdigest()
    return {"scenario": "quorum", "seed": seed, "rows": rows,
            "digest": digest}


def run_robust_scenario(seed: int, n: int = 24, t: int = 5,
                        requests: int = 40, profile: str = "wan",
                        loss: float = 0.12, stragglers: int = 2,
                        straggler_delay_us: int = 300_000,
                        forgers: int = 2, mean_interval_us: int = 40_000,
                        group_name: str = "toy") -> Dict:
    """Robust combine under heavy loss, slow signers and forged partials.

    Forgers return well-formed but invalid partials, so the optimistic
    batch verify fails and ``combine_window`` localizes the forged
    partials among what arrived; stragglers keep valid partials in flight past the
    window timeout; loss forces retransmits.  Every request must still
    end with a verifying signature.
    """
    if n - forgers < t + 1:
        raise SimulationError("not enough honest signers to ever combine")
    group = get_group(group_name)
    codec = WireCodec(group)
    params = ThresholdParams.generate(group, t, n)
    scheme = LJYThresholdScheme(params)
    public_key, shares, vks = scheme.dealer_keygen(
        rng=_rng(seed, "robust-keys"))
    kernel, net, signer_ids = _signing_net(seed, n, profile, loss)
    forger_ids = set(signer_ids[:forgers])
    straggler_ids = set(signer_ids[-stragglers:]) if stragglers else set()
    for i in signer_ids:
        SignerPeer(
            i, net, scheme, shares[i], codec,
            compute_delay_us=(straggler_delay_us if i in straggler_ids
                              else SIGN_COMPUTE_US),
            forge=i in forger_ids)
    combiner = CombinerPeer(
        "combiner", net, scheme, public_key, vks, signer_ids, codec,
        retry_timeout_us=1_500_000, max_retries=8)
    _schedule_arrivals(kernel, combiner, seed, "robust", requests,
                       mean_interval_us)
    kernel.run()
    row = _signing_row("robust", combiner, net, kernel, requests)
    row.update({"seed": seed, "n": n, "t": t, "profile": profile,
                "loss": loss, "stragglers": stragglers, "forgers": forgers})
    return row


# ---------------------------------------------------------------------------
# Reshare / ring churn under load
# ---------------------------------------------------------------------------

def run_churn_scenario(seed: int, n: int = 16, t: int = 3,
                       requests: int = 36, profile: str = "wan",
                       loss: float = 0.02, mean_interval_us: int = 60_000,
                       reshare_start_us: int = 200_000,
                       shards_before: int = 4, shards_after: int = 6,
                       group_name: str = "toy") -> Dict:
    """Reshare to a shifted committee while signing load is in flight.

    The old committee is 1..n; the new one is 2..n+1 (member 1 leaves,
    member n+1 joins).  Reshare players run on dedicated sim peers that
    share their host's bandwidth cursors with the co-located signer, so
    resharing contends with signing for the same uplinks.  When every
    reshare player finalizes, one atomic epoch-switch event installs
    the new shares and verification keys; in-flight epoch-0 partials
    still combine under the retained epoch-0 keys, and retransmits land
    in the epoch-1 bucket.  Both epochs must produce signatures.

    The row also reports the shard-ring remap fraction when the
    :class:`~repro.service.shards.HashRing` grows from ``shards_before``
    to ``shards_after`` — the data-plane cost that accompanies a
    committee change in the sharded service.
    """
    group = get_group(group_name)
    codec = WireCodec(group)
    params = ThresholdParams.generate(group, t, n)
    scheme = LJYThresholdScheme(params)
    public_key, shares, vks = scheme.dealer_keygen(
        rng=_rng(seed, "churn-keys"))

    kernel, net, signer_ids = _signing_net(seed, n, profile, loss)
    new_indices = list(range(2, n + 2))
    all_indices = sorted(set(signer_ids) | set(new_indices))
    reshare_peer_of = {i: ("reshare", i) for i in all_indices}
    # A node's reshare role shares its signing host's uplink/downlink.
    for i in all_indices:
        net.links.host_of[("reshare", i)] = i

    signers = {
        i: SignerPeer(i, net, scheme, shares[i], codec,
                      compute_delay_us=SIGN_COMPUTE_US)
        for i in signer_ids
    }
    combiner = CombinerPeer(
        "combiner", net, scheme, public_key, vks, signer_ids, codec,
        window_size=4, retry_timeout_us=1_000_000, max_retries=8)
    _schedule_arrivals(kernel, combiner, seed, "churn", requests,
                       mean_interval_us)

    state = {"finalized": 0, "switch_us": None, "publics": None,
             "mismatches": 0}
    reshare_peers: Dict[int, RoundDrivenPeer] = {}

    def on_reshare_finalize(peer: RoundDrivenPeer) -> None:
        result = peer.result
        state["finalized"] += 1
        if state["publics"] is None:
            state["publics"] = list(result.public_components)
        elif list(result.public_components) != state["publics"]:
            state["mismatches"] += 1
        if state["finalized"] == len(reshare_peers):
            _epoch_switch()

    def _epoch_switch() -> None:
        if state["mismatches"]:
            raise SimulationError(
                "reshare players disagreed on the public components")
        _, new_vks = result_keys(reshare_peers[new_indices[0]].result)
        for i in new_indices:
            new_share, _ = result_keys(reshare_peers[i].result)
            if i in signers:
                signers[i].install_share(new_share, epoch=1)
            else:
                joined = SignerPeer(i, net, scheme, new_share, codec,
                                    compute_delay_us=SIGN_COMPUTE_US)
                joined.epoch = 1
                signers[i] = joined
        combiner.install_epoch(1, new_vks)
        combiner.signer_ids = list(new_indices)
        state["switch_us"] = kernel.now_us
        kernel.trace("epoch-switch")

    reshare_ids = [reshare_peer_of[i] for i in all_indices]
    schedule = _round_window_us(net.links, n + 1, t, reshare_start_us)
    for i in all_indices:
        player = ResharePlayer(
            i, group, params.g_z, params.g_r, old_t=t, new_t=t,
            dealer_indices=signer_ids, new_indices=new_indices,
            old_vks=vks, old_share=shares.get(i),
            rng=_rng(seed, "reshare-player", i))
        reshare_peers[i] = RoundDrivenPeer(
            reshare_peer_of[i], net, player, schedule,
            on_finalize=on_reshare_finalize,
            peer_for_player=reshare_peer_of.__getitem__,
            group_ids=reshare_ids)
    for i in all_indices:
        kernel.schedule_at(reshare_start_us, reshare_peers[i].start)
    kernel.run()

    if state["switch_us"] is None:
        raise SimulationError("the reshare never completed")
    row = _signing_row("churn", combiner, net, kernel, requests)

    # Data-plane churn: how many request keys move shards when the ring
    # grows (purely a function of the message bytes — deterministic).
    before = HashRing(list(range(shards_before)))
    after = HashRing(list(range(shards_after)))
    moved = sum(
        1 for request in combiner.requests.values()
        if before.shard_for(request.message)
        != after.shard_for(request.message))
    row.update({
        "seed": seed, "n": n, "t": t, "profile": profile, "loss": loss,
        "reshare_ms": (state["switch_us"] - reshare_start_us) / 1000.0,
        "epoch0_signed": combiner.signed_by_epoch.get(0, 0),
        "epoch1_signed": combiner.signed_by_epoch.get(1, 0),
        "remap_pct": 100.0 * moved / max(1, len(combiner.requests)),
    })
    if row["epoch1_signed"] == 0:
        raise SimulationError("no request ever signed under epoch 1")
    return row


# ---------------------------------------------------------------------------
# The CI gate
# ---------------------------------------------------------------------------

def run_ci_scenario(seed: int = 2026) -> Dict:
    """The fixed-seed composite CI runs twice and diffs byte-for-byte:
    a lossy n=64 DKG (complaint machinery exercised) plus a small
    robust-combine run.  The digest covers both kernels' full traces."""
    dkg = run_dkg_scenario(seed, n=64, t=5, profile="wan", loss=0.03)
    robust = run_robust_scenario(
        seed, n=10, t=2, requests=12, loss=0.10, stragglers=1, forgers=1,
        mean_interval_us=30_000)
    digest = hashlib.sha256(
        (dkg["digest"] + robust["digest"]).encode("ascii")).hexdigest()
    return {"scenario": "ci", "seed": seed, "dkg": dkg, "robust": robust,
            "digest": digest}


#: CLI / test registry — scenario name -> callable(seed, **overrides).
SCENARIOS = {
    "ci": run_ci_scenario,
    "dkg": run_dkg_scenario,
    "quorum": run_quorum_scenario,
    "robust": run_robust_scenario,
    "churn": run_churn_scenario,
}
