"""Tests for the discrete-event simulation harness (``repro.sims``).

Three layers, bottom-up:

* the event kernel — ordering, clock discipline, and the trace digest
  that ``make sim-smoke`` gates on;
* the link model — serialization time, host coupling, regions, loss;
* the simulated network and the scenario catalog — anti-forgery,
  byte accounting, and end-to-end seed determinism on small committees
  (the large-n runs live in ``benchmarks/test_f7_sim.py`` behind the
  ``sim`` marker).
"""

import pathlib
import random
import sys

import pytest

from repro.sims.kernel import EventKernel, SimulationError
from repro.sims.links import (
    LAN_PROFILE, WAN_REGION_LATENCY_US, LinkModel, LinkProfile,
    assign_regions, make_link_model,
)
from repro.sims.net import SimNet, SimPeer
from repro.sims.scenarios import (
    run_churn_scenario, run_ci_scenario, run_dkg_scenario,
    run_robust_scenario,
)

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tools"

#: What ``make sim-smoke`` prints: each gated scenario's event-trace
#: digest at ``tools/sim_run.py``'s default seed.  A change that moves
#: one updates it here and says why.
PINNED_DIGESTS = {
    "ci": "a9abd675011651dfd9bfa08e97b02cd8aa95df79dd73e710e52468a0efd6121d",
    "churn":
        "adc6e7c7f5c6dafeb74f59b69da1f5462c96b9af63e3c12b1e1b25e58ad85d39",
}


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

class TestEventKernel:
    def test_events_fire_in_time_order(self):
        kernel = EventKernel(seed=1)
        fired = []
        kernel.schedule_at(30, fired.append, "c")
        kernel.schedule_at(10, fired.append, "a")
        kernel.schedule_at(20, fired.append, "b")
        assert kernel.run() == 3
        assert fired == ["a", "b", "c"]
        assert kernel.now_us == 30

    def test_same_instant_events_fire_in_schedule_order(self):
        kernel = EventKernel(seed=1)
        fired = []
        for tag in ("first", "second", "third"):
            kernel.schedule_at(5, fired.append, tag)
        kernel.run()
        assert fired == ["first", "second", "third"]

    def test_schedule_in_the_past_raises(self):
        kernel = EventKernel(seed=1)
        kernel.schedule_at(10, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.schedule_at(5, lambda: None)

    def test_schedule_relative_clamps_negative_delay(self):
        kernel = EventKernel(seed=1)
        fired = []
        kernel.schedule(-100, fired.append, "now")
        kernel.run()
        assert fired == ["now"] and kernel.now_us == 0

    def test_run_until_leaves_later_events_pending(self):
        kernel = EventKernel(seed=1)
        fired = []
        kernel.schedule_at(10, fired.append, "early")
        kernel.schedule_at(1000, fired.append, "late")
        assert kernel.run(until_us=100) == 1
        assert fired == ["early"] and kernel.pending == 1
        kernel.run()
        assert fired == ["early", "late"]

    def test_run_max_events_bound(self):
        kernel = EventKernel(seed=1)
        for i in range(5):
            kernel.schedule_at(i, lambda: None)
        assert kernel.run(max_events=2) == 2
        assert kernel.pending == 3

    def test_digest_is_seed_deterministic(self):
        def drive(seed):
            kernel = EventKernel(seed=seed)
            for _ in range(50):
                kernel.schedule(
                    kernel.rng.randrange(1000),
                    lambda k=kernel: k.trace(f"tick {k.rng.random():.6f}"))
            kernel.run()
            return kernel.digest()

        assert drive(7) == drive(7)
        assert drive(7) != drive(8)

    def test_trace_lines_retained_only_on_request(self):
        plain = EventKernel(seed=1)
        assert plain.trace_lines is None
        keeper = EventKernel(seed=1, keep_trace_lines=True)
        keeper.trace("hello")
        assert keeper.trace_lines == ["0 hello"]
        assert keeper.events_traced == 1


# ---------------------------------------------------------------------------
# links
# ---------------------------------------------------------------------------

def _quiet_profile(**overrides):
    base = dict(latency_base_us=1_000, latency_jitter_us=0,
                uplink_bps=8_000_000, downlink_bps=8_000_000, loss=0.0)
    base.update(overrides)
    return LinkProfile(**base)


class TestLinkModel:
    def test_serialization_time_is_exact(self):
        # 1000 bytes at 8 Mb/s is exactly 1000 µs; ceiling division
        # keeps sub-µs transfers at 1 µs, never 0.
        assert LinkModel._tx_us(1000, 8_000_000) == 1000
        assert LinkModel._tx_us(1, 8_000_000_000) == 1

    def test_transfer_pays_uplink_then_latency(self):
        links = LinkModel(_quiet_profile(), random.Random(1))
        done = links.transfer(0, "a", "b", 1000)
        # 1000 µs uplink + 1000 µs base latency + 1000 µs downlink.
        assert done == 3000
        assert links.messages_sent == 1 and links.bytes_sent == 1000

    def test_back_to_back_sends_queue_on_the_uplink(self):
        links = LinkModel(_quiet_profile(), random.Random(1))
        first = links.transfer(0, "a", "b", 1000)
        second = links.transfer(0, "a", "c", 1000)
        # The second message waits for the first's serialization slot.
        assert second == first + 1000

    def test_host_coupling_shares_the_uplink(self):
        links = LinkModel(_quiet_profile(), random.Random(1))
        links.host_of[("reshare", "a")] = "a"
        solo = links.transfer(0, "a", "b", 1000)
        coupled = links.transfer(0, ("reshare", "a"), "b", 1000)
        # Both roles serialize through host "a"'s single uplink.
        assert coupled == solo + 1000

    def test_loss_consumes_uplink_and_lossless_skips_the_draw(self):
        links = LinkModel(_quiet_profile(loss=1.0), random.Random(1))
        assert links.transfer(0, "a", "b", 1000) is None
        assert links.messages_dropped == 1
        # The dropped message still occupied the pipe ...
        delayed = links.transfer(0, "a", "b", 1000, lossless=True)
        assert delayed == 4000  # waited out the lost message's slot
        # ... and lossless transfers always deliver, even at loss=1.
        assert links.messages_dropped == 1

    def test_region_matrix_overrides_base_latency(self):
        regions = assign_regions(["a", "b", "c", "d"])
        assert regions == {"a": 0, "b": 1, "c": 2, "d": 0}
        links = LinkModel(_quiet_profile(), random.Random(1),
                          region_of=regions,
                          region_latency_us=WAN_REGION_LATENCY_US)
        assert links.base_latency_us("a", "d") == 2_000      # same region
        assert links.base_latency_us("a", "c") == 110_000    # us-east->ap
        assert links.base_latency_us("c", "a") == 110_000

    def test_make_link_model(self):
        wan = make_link_model("wan", random.Random(1), ["a", "b"],
                              loss=0.25)
        assert wan.profile.loss == 0.25
        assert wan.region_latency_us is WAN_REGION_LATENCY_US
        lan = make_link_model("lan", random.Random(1), ["a", "b"])
        assert lan.profile == LAN_PROFILE
        with pytest.raises(ValueError):
            make_link_model("carrier-pigeon", random.Random(1), [])


# ---------------------------------------------------------------------------
# net
# ---------------------------------------------------------------------------

class _Recorder(SimPeer):
    def __init__(self, peer_id, net):
        super().__init__(peer_id, net)
        self.got = []

    def receive(self, message):
        self.got.append((message.sender, message.kind, message.payload))


def _lan_net(seed=1):
    kernel = EventKernel(seed=seed)
    links = LinkModel(_quiet_profile(), kernel.rng)
    return kernel, SimNet(kernel, links)


class TestSimNet:
    def test_unicast_delivers_payload_verbatim(self):
        kernel, net = _lan_net()
        alice = _Recorder("alice", net)
        bob = _Recorder("bob", net)
        alice.send("bob", "ping", b"\x01\x02")
        kernel.run()
        assert bob.got == [("alice", "ping", b"\x01\x02")]
        assert net.traffic.messages == 1
        assert net.traffic.bytes_total == 2  # exact length for bytes

    def test_broadcast_reaches_everyone_but_the_sender(self):
        kernel, net = _lan_net()
        peers = [_Recorder(i, net) for i in range(4)]
        net.broadcast(peers[0], "hello", b"x")
        kernel.run()
        assert not peers[0].got
        assert all(p.got == [(0, "hello", b"x")] for p in peers[1:])

    def test_unregistered_sender_is_rejected(self):
        kernel, net = _lan_net()
        _Recorder("alice", net)
        _kernel2, net2 = _lan_net()
        stranger = _Recorder("mallory", net2)
        # A peer object not registered with *this* net cannot send
        # through it, even claiming an id that exists nowhere.
        with pytest.raises(SimulationError, match="unregistered sender"):
            net.send(stranger, "alice", "forged", b"x")

    def test_forged_peer_object_is_rejected(self):
        kernel, net = _lan_net()
        alice = _Recorder("alice", net)
        _Recorder("bob", net)

        class Imposter:
            peer_id = "bob"

        # Same claimed id, different object: the authenticated-channel
        # check compares identity, not the id string.
        with pytest.raises(SimulationError, match="unregistered sender"):
            net.send(Imposter(), "alice", "forged", b"x")
        assert not alice.got

    def test_duplicate_peer_id_is_rejected(self):
        kernel, net = _lan_net()
        _Recorder("alice", net)
        with pytest.raises(SimulationError, match="duplicate peer id"):
            _Recorder("alice", net)

    def test_send_to_unknown_recipient_is_rejected(self):
        kernel, net = _lan_net()
        alice = _Recorder("alice", net)
        with pytest.raises(SimulationError, match="no peer"):
            alice.send("nobody", "ping", b"x")

    def test_drops_are_counted_and_traced(self):
        kernel = EventKernel(seed=1)
        links = LinkModel(_quiet_profile(loss=1.0), kernel.rng)
        net = SimNet(kernel, links)
        alice = _Recorder("alice", net)
        bob = _Recorder("bob", net)
        alice.send("bob", "ping", b"x")
        kernel.run()
        assert net.drops == 1 and not bob.got
        # Reliable messages bypass the loss model entirely.
        net.send(alice, "bob", "ping", b"x", reliable=True)
        kernel.run()
        assert bob.got and net.drops == 1


# ---------------------------------------------------------------------------
# scenarios (small n — the big ones are `sim`-marked benchmarks)
# ---------------------------------------------------------------------------

class TestScenarios:
    def test_dkg_small_committee_agrees_and_is_deterministic(self):
        row = run_dkg_scenario(seed=5, n=8, t=2, loss=0.05)
        again = run_dkg_scenario(seed=5, n=8, t=2, loss=0.05)
        assert row == again
        assert row["qualified"] >= 6  # n - t at the very least
        assert row["digest"] != run_dkg_scenario(
            seed=6, n=8, t=2, loss=0.05)["digest"]

    def test_dkg_lan_profile_runs(self):
        row = run_dkg_scenario(seed=5, n=6, t=1, profile="lan")
        assert row["qualified"] == 6 and row["drops"] == 0

    def test_robust_scenario_signs_through_adversity(self):
        row = run_robust_scenario(
            seed=9, n=10, t=2, requests=10, loss=0.10, stragglers=1,
            forgers=1, mean_interval_us=30_000)
        # Every request must settle despite loss + a straggler + a
        # forger, and the forger must actually have been flagged.
        assert row["flagged"] >= 1
        assert row["drops"] > 0
        assert row == run_robust_scenario(
            seed=9, n=10, t=2, requests=10, loss=0.10, stragglers=1,
            forgers=1, mean_interval_us=30_000)

    def test_churn_scenario_crosses_the_epoch(self):
        row = run_churn_scenario(seed=3, n=8, t=2, requests=16,
                                 loss=0.01, mean_interval_us=200_000)
        assert row["epoch0_signed"] > 0 and row["epoch1_signed"] > 0
        assert row["epoch0_signed"] + row["epoch1_signed"] == 16
        assert 0.0 < row["remap_pct"] < 100.0

    def test_ci_scenario_digest_is_reproducible(self, sim_seed):
        first = run_ci_scenario(sim_seed)
        second = run_ci_scenario(sim_seed)
        assert first["digest"] == second["digest"]
        assert first["dkg"]["qualified"] >= 60


@pytest.mark.sim
def test_sim_smoke_digests_pinned(tmp_path):
    """The gated scenarios reproduce the pinned digests, at the default
    seed whatever ``--seed`` says: ``make sim-smoke`` compares two runs
    of one tree, which a change moving both would pass."""
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import sim_run
    finally:
        sys.path.remove(str(TOOLS_DIR))
    assert {name: sim_run.run_scenario(
        name, sim_run.DEFAULT_SEED, tmp_path, {})
        for name in PINNED_DIGESTS} == PINNED_DIGESTS
