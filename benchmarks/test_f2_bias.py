"""Experiment F2 — the Pedersen-DKG bias attack and why it is tolerable.

Reproduces the paper's Section 1 discussion quantitatively:

* a rushing adversary with c corrupted players biases a balanced
  predicate of the public key to ~1 - 2^(-2^c);
* the GJKR new-DKG is immune (contribution reconstruction);
* and — the paper's point — the biased key still signs and the adaptive
  security game cannot be won below the threshold.
"""

import random

from repro.bench.tables import Table
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.security.attacks import (
    gjkr_bias_experiment, honest_pedersen_baseline,
    pedersen_bias_experiment,
)
from repro.security.games import (
    AdaptiveChosenMessageGame, BelowThresholdAdversary,
    LagrangeForgeryAdversary,
)

TRIALS = 80
T, N = 1, 4


def test_f2_bias_table(toy_group, save_table):
    rng = random.Random(13)
    table = Table(
        "F2: empirical predicate rate on the DKG public key "
        f"({TRIALS} trials, t={T}, n={N})",
        ["strategy", "corrupted", "rate", "expected"])
    honest = honest_pedersen_baseline(toy_group, T, N, TRIALS, rng=rng)
    table.add_row(strategy="honest Pedersen", corrupted=0,
                  rate=honest.success_rate, expected=0.5)
    rates = {0: honest.success_rate}
    for corrupted in (1, 2):
        result = pedersen_bias_experiment(
            toy_group, T, N, TRIALS, num_corrupted=corrupted, rng=rng)
        rates[corrupted] = result.success_rate
        table.add_row(strategy="rushing bias attack", corrupted=corrupted,
                      rate=result.success_rate,
                      expected=1 - 0.5 ** (2 ** corrupted))
    gjkr = gjkr_bias_experiment(
        toy_group, T, N, TRIALS, num_corrupted=2, rng=rng)
    table.add_row(strategy="GJKR new-DKG + dropout", corrupted=2,
                  rate=gjkr.success_rate, expected=0.5)
    save_table(table, "f2_bias")

    # Shape assertions: monotone in c, GJKR unaffected.
    assert rates[1] > rates[0]
    assert rates[2] > rates[1] - 0.1   # noise tolerance
    assert rates[2] > 0.8
    assert 0.3 < gjkr.success_rate < 0.7


def test_f2_unforgeability_under_biased_keys(toy_group, save_table):
    """Run the Definition 1 game on DKG-generated (biasable) keys: all
    below-threshold strategies must keep losing."""
    rng = random.Random(14)
    params = ThresholdParams.generate(toy_group, t=2, n=5)
    scheme = LJYThresholdScheme(params)
    table = Table("F2b: Definition-1 game outcomes on DKG keys (20 runs "
                  "per strategy)", ["strategy", "wins", "runs"])
    for name, adversary_cls in [
            ("below-threshold interpolation", BelowThresholdAdversary),
            ("t partial signatures on M*", LagrangeForgeryAdversary)]:
        wins = 0
        runs = 20
        for _ in range(runs):
            game = AdaptiveChosenMessageGame(scheme, rng=rng, use_dkg=True)
            if game.play(adversary_cls()).won:
                wins += 1
        table.add_row(strategy=name, wins=wins, runs=runs)
        assert wins == 0
    save_table(table, "f2b_game")


def test_f2_bias_attack_wallclock(toy_group):
    rng = random.Random(15)
    result = pedersen_bias_experiment(
        toy_group, T, N, 5, num_corrupted=2, rng=rng)
    assert result.trials == 5 and result.successes >= 3
