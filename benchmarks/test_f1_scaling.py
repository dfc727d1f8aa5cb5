"""Experiment F1 — non-interactive signing scalability.

Paper claims embodied here:

* Share-Sign is local and independent of n (non-interactivity);
* Combine interpolates t+1 partials, so its cost grows with t only;
* signature and share sizes stay constant throughout.
"""

import random
import time

from repro.bench.tables import Table
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme

SWEEP = (3, 9, 17, 33, 65)


def _deploy(group, n, rng):
    t = (n - 1) // 2
    params = ThresholdParams.generate(group, t, n)
    scheme = LJYThresholdScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=rng)
    return scheme, pk, shares, vks


def _timed(fn, repeats=5):
    """Fastest of ``repeats`` calls, in ms.  The calls take microseconds
    on the toy backend, so one scheduler or GC pause would dominate a
    mean; the minimum keeps the cost of the call itself."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best * 1000


def test_f1_scaling_table(toy_group, save_table):
    rng = random.Random(10)
    message = b"scaling message"
    table = Table(
        "F1: cost vs n (toy backend, group ops ~free; shows protocol "
        "overhead shape)",
        ["n", "t", "share_sign_ms", "combine_ms", "verify_ms",
         "sig_bits"])
    share_sign_times = []
    combine_times = []
    for n in SWEEP:
        scheme, pk, shares, vks = _deploy(toy_group, n, rng)
        t = scheme.params.t
        partials = [scheme.share_sign(shares[i], message)
                    for i in range(1, t + 2)]
        signature = scheme.combine(pk, vks, message, partials,
                                   verify_shares=False)
        sign_ms = _timed(lambda: scheme.share_sign(shares[1], message))
        combine_ms = _timed(
            lambda: scheme.combine(pk, vks, message, partials,
                                   verify_shares=False))
        verify_ms = _timed(lambda: scheme.verify(pk, message, signature))
        share_sign_times.append(sign_ms)
        combine_times.append(combine_ms)
        table.add_row(n=n, t=t, share_sign_ms=sign_ms,
                      combine_ms=combine_ms, verify_ms=verify_ms,
                      sig_bits=signature.size_bits)
    save_table(table, "f1_scaling")

    # Share-Sign must not grow with n (non-interactive, local).  Allow a
    # generous factor for timer noise.
    assert max(share_sign_times) < 20 * max(min(share_sign_times), 1e-4)
    # Combine grows with t (Lagrange over t+1 shares): largest sweep point
    # must dominate the smallest.
    assert combine_times[-1] > combine_times[0]


def test_f1_combine_growth_is_linear_in_t(toy_group, save_table):
    """Least-squares check: combine time vs t fits a line much better
    than a constant (ratio test on residuals)."""
    import numpy as np
    rng = random.Random(11)
    message = b"fit"
    ts, times = [], []
    for n in SWEEP:
        scheme, pk, shares, vks = _deploy(toy_group, n, rng)
        t = scheme.params.t
        partials = [scheme.share_sign(shares[i], message)
                    for i in range(1, t + 2)]
        ts.append(t)
        times.append(_timed(
            lambda: scheme.combine(pk, vks, message, partials,
                                   verify_shares=False), repeats=7))
    slope, intercept = np.polyfit(ts, times, 1)
    assert slope > 0
    table = Table("F1b: combine-time linear fit vs t",
                  ["t", "measured_ms", "fit_ms"])
    for t, measured in zip(ts, times):
        table.add_row(t=t, measured_ms=measured,
                      fit_ms=slope * t + intercept)
    save_table(table, "f1b_combine_fit")


def test_f1_share_sign_bn254(bn254_group):
    """Per-server signing on the real curve: local, and publicly checkable."""
    rng = random.Random(12)
    scheme, pk, shares, vks = _deploy(bn254_group, 3, rng)
    partial = scheme.share_sign(shares[1], b"m")
    assert scheme.share_verify(pk, vks[1], b"m", partial)
