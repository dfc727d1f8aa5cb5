"""Experiment F5 — robustness: Combine under adversarial partial shares.

The scheme definition (Section 2.1) requires Combine to output a valid
signature whenever t+1 valid partials are among the inputs.  We inject
0..t garbage shares from corrupted servers and measure the robust
combiner, plus the ablation the DESIGN notes: eager share verification
versus optimistic combining with retry.
"""

import random
import time

from repro.bench.tables import Table
from repro.core.keys import PartialSignature, ThresholdParams
from repro.core.scheme import LJYThresholdScheme

T, N = 3, 7


def _deploy(group, rng):
    params = ThresholdParams.generate(group, T, N)
    scheme = LJYThresholdScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=rng)
    return scheme, pk, shares, vks


def _garbage(scheme, index):
    g = scheme.group.g1_generator()
    return PartialSignature(index=index, z=g ** (7 * index), r=g ** 13)


def test_f5_robustness_table(toy_group, save_table):
    rng = random.Random(22)
    scheme, pk, shares, vks = _deploy(toy_group, rng)
    message = b"robustness"
    table = Table(
        f"F5: robust Combine with b bad shares (t={T}, n={N})",
        ["bad_shares", "inputs", "combined_ok", "robust_ms"])
    for bad in range(T + 1):
        garbage = [_garbage(scheme, i) for i in range(1, bad + 1)]
        honest = [scheme.share_sign(shares[i], message)
                  for i in range(bad + 1, bad + T + 2)]
        inputs = garbage + honest
        start = time.perf_counter()
        signature = scheme.combine(pk, vks, message, inputs)
        robust_ms = (time.perf_counter() - start) * 1000
        ok = scheme.verify(pk, message, signature)
        table.add_row(bad_shares=bad, inputs=len(inputs), combined_ok=ok,
                      robust_ms=robust_ms)
        assert ok
    save_table(table, "f5_robustness")


def test_f5_eager_vs_optimistic_ablation(toy_group, save_table):
    """Ablation: eager combining (every partial Share-Verified, then
    the valid ones interpolated) vs ``scheme.combine``, which
    interpolates first and checks partials only when the combined
    signature fails Verify."""
    rng = random.Random(23)
    scheme, pk, shares, vks = _deploy(toy_group, rng)
    message = b"ablation"

    def eager_combine(inputs):
        valid = [partial for partial in inputs
                 if partial.index in vks and scheme.share_verify(
                     pk, vks[partial.index], message, partial)]
        return scheme.combine(pk, vks, message, valid, verify_shares=False)

    def optimistic_combine(inputs):
        return scheme.combine(pk, vks, message, inputs)

    def timed(fn, repeats=5):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / repeats * 1000

    table = Table("F5b: eager vs optimistic combine (ms)",
                  ["scenario", "eager_ms", "optimistic_ms"])
    honest_inputs = [scheme.share_sign(shares[i], message)
                     for i in range(1, T + 2)]
    mixed_inputs = [_garbage(scheme, 1)] + [
        scheme.share_sign(shares[i], message) for i in range(2, T + 3)]
    for name, inputs in [("all honest", honest_inputs),
                         ("1 bad share", mixed_inputs)]:
        eager = timed(lambda: eager_combine(inputs))
        optimistic = timed(lambda: optimistic_combine(inputs))
        table.add_row(scenario=name, eager_ms=eager,
                      optimistic_ms=optimistic)
        assert eager_combine(inputs).to_bytes() == \
            optimistic_combine(inputs).to_bytes()
        assert scheme.verify(pk, message, optimistic_combine(inputs))
    save_table(table, "f5b_ablation")


def test_f5_robust_combine_wallclock(toy_group):
    rng = random.Random(24)
    scheme, pk, shares, vks = _deploy(toy_group, rng)
    message = b"wallclock"
    inputs = [_garbage(scheme, 1)] + [
        scheme.share_sign(shares[i], message) for i in range(2, T + 3)]
    assert scheme.verify(pk, message,
                         scheme.combine(pk, vks, message, inputs))
