"""Experiment F7 — discrete-event WAN simulation of the full protocol.

Loopback benches (F1-F6) measure compute; these tables measure the
*network* story the paper's deployment model implies: real DKG /
sign / reshare code paths at committee sizes the lockstep simulator
cannot reach, over a 3-region WAN model with bandwidth contention,
latency jitter and i.i.d. loss (``repro.sims``; model and determinism
contract in ``docs/SIMULATION.md``).

Times in these tables are **virtual** (the event kernel's clock), so
the numbers are exactly reproducible: every table ends with the
kernel's event-trace digest, and re-running with the same seed must
reproduce the file byte for byte (``make sim-smoke`` gates this).

The big-n scenarios are marked ``sim`` (minutes of wall clock at
n=1024) and excluded from ``make test-fast``; the full suite and the
CI full job run them.
"""

import pathlib
import sys

import pytest

from repro.sims.scenarios import (
    run_churn_scenario, run_dkg_scenario, run_quorum_scenario,
    run_robust_scenario,
)

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def sim_tables():
    """The table builders from ``tools/sim_run.py`` — the CLI and the
    benchmarks must render identical files for identical rows."""
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        import sim_run
    finally:
        sys.path.remove(str(TOOLS_DIR))
    return sim_run


@pytest.fixture(scope="module")
def save_sim_table(results_dir):
    def _save(name: str, tables, digest: str) -> None:
        text = "\n\n".join(table.render() for table in tables)
        text += f"\n\ndigest: {digest}\n"
        (results_dir / f"f7_sim_{name}.txt").write_text(text)
        print("\n" + text)
    return _save


@pytest.mark.sim
def test_f7a_dkg_at_n1024(sim_tables, save_sim_table, sim_seed):
    """Full Pedersen DKG at n=1024 over the WAN model: every honest
    player must finish, agree on the qualified set and public key, and
    a t+1 quorum of the resulting shares must sign end to end (the
    scenario asserts all of that internally)."""
    row = run_dkg_scenario(sim_seed, n=1024, t=5)
    assert row["qualified"] == 1024
    assert row["messages"] >= 2 * 1024 * 1023  # dealings + shares
    assert row["finalize_ms"] > row["deal_p95_ms"]
    save_sim_table("dkg", [sim_tables.dkg_table([row])], row["digest"])


@pytest.mark.sim
def test_f7b_time_to_quorum_vs_n(sim_tables, save_sim_table, sim_seed):
    """Time-to-quorum for one signing request as the committee grows
    64 -> 1024 under 1% loss: the combiner needs only t+1 partials, so
    latency grows with contention, not with n."""
    result = run_quorum_scenario(sim_seed)
    rows = result["rows"]
    assert [row["n"] for row in rows] == [64, 256, 1024]
    for row in rows:
        assert row["quorum_p50_ms"] <= row["signed_p50_ms"]
    # Quorum latency must stay sane as n grows 16x: the whole point of
    # t+1-of-n combining is that signing does not pay for n.
    assert rows[-1]["quorum_p50_ms"] < 3 * rows[0]["quorum_p50_ms"]
    save_sim_table("quorum", [sim_tables.quorum_table(rows)],
                   result["digest"])


def test_f7c_robust_combine_under_adversity(sim_tables, save_sim_table,
                                            sim_seed):
    """12% loss, 2 stragglers, 2 forgers: every request still settles
    with a verifying signature (Share-Verify localizes the forgers —
    ``flagged`` counts them being caught)."""
    row = run_robust_scenario(sim_seed)
    assert row["flagged"] > 0      # the forgers were actually caught
    assert row["drops"] > 0        # the loss model actually fired
    save_sim_table("robust", [sim_tables.robust_table([row])],
                   row["digest"])


def test_f7d_reshare_and_ring_churn_under_load(sim_tables, save_sim_table,
                                               sim_seed):
    """Resharing a 16-signer committee to a shifted one (member 1
    leaves, member 17 joins) with a 4 -> 6 shard-ring grow, while
    signing traffic keeps arriving: requests settle under both epochs
    and the ring remap stays proportional."""
    row = run_churn_scenario(sim_seed)
    assert row["epoch0_signed"] > 0 and row["epoch1_signed"] > 0
    assert 0.0 < row["remap_pct"] < 100.0
    save_sim_table("churn", [sim_tables.churn_table([row])],
                   row["digest"])
