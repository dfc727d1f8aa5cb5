"""Experiment T1 — signature/key sizes at the 128-bit level.

Paper claims (Section 3.1, Section 4, Section 1):

* Section 3 scheme: 512-bit signatures on BN curves;
* RSA-based threshold signatures [Shoup'00 / ADN'06]: 3076 bits;
* Section 4 standard-model scheme: 2048 bits;
* Appendix F DLIN scheme: 3 G elements (768 bits);
* BLS baseline: 1 G element (256 bits);
* private key shares: O(1) scalars for all our schemes.

All sizes below are measured from real encodings (BN254 compressed points,
RSA residues at a 3072-bit modulus), not copied from the paper.
"""

import random

import pytest

from repro.baselines.bls_threshold import BoldyrevaThresholdBLS
from repro.baselines.rsa_threshold import ShoupThresholdRSA
from repro.bench.tables import Table
from repro.core.dlin_scheme import DLINParams, LJYDLINScheme
from repro.core.keys import ThresholdParams
from repro.core.scheme import LJYThresholdScheme
from repro.core.standard_model import LJYStandardModelScheme, SMParams
from repro.serialization import (
    measure_bls, measure_dlin, measure_ljy_rom, measure_ljy_standard,
    measure_shoup,
)

T, N = 1, 3


@pytest.fixture(scope="module")
def reports(bn254_group):
    rng = random.Random(1)
    rows = []

    params = ThresholdParams.generate(bn254_group, T, N)
    scheme = LJYThresholdScheme(params)
    pk, shares, vks = scheme.dealer_keygen(rng=rng)
    partial = scheme.share_sign(shares[1], b"m")
    sig = scheme.combine(pk, vks, b"m", [
        scheme.share_sign(shares[i], b"m") for i in (1, 2)])
    rows.append(measure_ljy_rom(scheme, pk, shares[1], partial, sig))

    sm_params = SMParams.generate(bn254_group, T, N, bit_length=8)
    sm_scheme = LJYStandardModelScheme(sm_params)
    sm_pk, sm_shares, sm_vks = sm_scheme.dealer_keygen(rng=rng)
    sm_partial = sm_scheme.share_sign(sm_shares[1], b"m", rng=rng)
    sm_sig = sm_scheme.combine(sm_pk, sm_vks, b"m", [
        sm_scheme.share_sign(sm_shares[i], b"m", rng=rng)
        for i in (1, 2)], rng=rng)
    rows.append(measure_ljy_standard(
        sm_scheme, sm_pk, sm_shares[1], sm_partial, sm_sig))

    dl_params = DLINParams.generate(bn254_group, T, N)
    dl_scheme = LJYDLINScheme(dl_params)
    dl_pk, dl_shares, dl_vks = dl_scheme.dealer_keygen(rng=rng)
    dl_partial = dl_scheme.share_sign(dl_shares[1], b"m")
    dl_sig = dl_scheme.combine(dl_pk, dl_vks, b"m", [
        dl_scheme.share_sign(dl_shares[i], b"m") for i in (1, 2)])
    rows.append(measure_dlin(dl_scheme, dl_pk, dl_shares[1], dl_partial,
                             dl_sig))

    bls = BoldyrevaThresholdBLS(bn254_group, T, N)
    bls_pk, bls_shares, bls_vks = bls.dealer_keygen(rng=rng)
    bls_partial = bls.share_sign(1, bls_shares[1], b"m")
    bls_sig = bls.combine(bls_vks, b"m", [
        bls.share_sign(i, bls_shares[i], b"m") for i in (1, 2)])
    rows.append(measure_bls(bn254_group, bls_pk, bls_partial, bls_sig))

    shoup = ShoupThresholdRSA(T, N, modulus_bits=3072)
    sh_pk, sh_shares = shoup.dealer_keygen(rng=rng)
    sh_partial = shoup.share_sign(sh_pk, 1, sh_shares[1], b"m", rng=rng)
    sh_sig = shoup.combine(sh_pk, b"m", [
        shoup.share_sign(sh_pk, i, sh_shares[i], b"m", rng=rng)
        for i in (1, 2)])
    rows.append(measure_shoup(shoup, sh_pk, sh_partial, sh_sig))
    return rows


def test_t1_size_table(reports, save_table):
    table = Table(
        "T1: sizes at the 128-bit level (bits, measured on BN254 / "
        "3072-bit RSA)",
        ["scheme", "signature_bits", "public_key_bits", "share_bits",
         "partial_bits"])
    for report in reports:
        table.add_row(**report.as_row())
    save_table(table, "t1_sizes")

    by_scheme = {r.scheme: r for r in reports}
    rom = by_scheme["LJY14 Section 3 (ROM)"]
    std = by_scheme["LJY14 Section 4 (standard model)"]
    dlin = by_scheme["LJY14 Appendix F (DLIN)"]
    bls = by_scheme["Boldyreva'03 threshold BLS (static)"]
    shoup = by_scheme["Shoup'00 threshold RSA (3072-bit N)"]

    # The paper's exact size claims.
    assert rom.signature_bits == 512
    assert std.signature_bits == 2048
    assert dlin.signature_bits == 768
    assert bls.signature_bits == 256
    assert shoup.signature_bits == 3072          # paper quotes 3076 w/ encoding
    # Ordering claim: ours beats RSA by ~6x, standard model by ~1.5x.
    assert rom.signature_bits * 6 == shoup.signature_bits
    assert std.signature_bits < shoup.signature_bits
    # Shares are O(1) scalars.
    assert rom.share_bits == 4 * 256
    assert std.share_bits == 2 * 256


def test_t1_share_size_constant_in_n(bn254_group, save_table):
    """Share bits for the Section 3 scheme do not grow with n."""
    table = Table("T1b: Section 3 share size vs n (bits)",
                  ["n", "share_bits"])
    rng = random.Random(2)
    sizes = []
    for n in (3, 7, 15):
        params = ThresholdParams.generate(bn254_group, (n - 1) // 2, n)
        scheme = LJYThresholdScheme(params)
        _pk, shares, _vks = scheme.dealer_keygen(rng=rng)
        size = shares[1].storage_bytes() * 8
        sizes.append(size)
        table.add_row(n=n, share_bits=size)
    save_table(table, "t1b_share_size")
    assert len(set(sizes)) == 1
