"""The main threshold signature scheme (Section 3 of the paper).

The construction hashes a message to a vector ``(H_1, H_2)`` in G^2 and
signs it with the DP-based one-time LHSPS of Section 2.3.  Because that
LHSPS is deterministic and key homomorphic, each server can produce its
partial signature without talking to anyone (Share-Sign), and t+1 partial
signatures interpolate — "Lagrange in the exponent" — into the unique full
signature (Combine).

This module implements the five algorithms of the threshold-signature
syntax (Section 2.1): the interactive ``Dist-Keygen`` lives in
:mod:`repro.dkg.pedersen_dkg`; here we provide the algorithms plus a
trusted-dealer keygen used by tests and by centralized callers.

All equations are checked as single products of pairings, so verification
costs one multi-pairing of four pairs — the paper's "product of four
pairings" (Section 3.1).
"""

from __future__ import annotations

import json
import logging
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.core.keys import (
    KeygenOutput, PartialSignature, PrivateKeyShare, PublicKey, Signature,
    ThresholdParams, VerificationKey,
)
from repro.errors import CombineError, ParameterError
from repro.groups.api import BilinearGroup, GroupElement
from repro.math.lagrange import lagrange_at_zero, lagrange_coefficients
from repro.math.polynomial import Polynomial
from repro.math.rng import random_scalar

_LOG = logging.getLogger(__name__)


def partials_over(group: BilinearGroup,
                  hashed: Sequence[Tuple[GroupElement, GroupElement]],
                  shares: Sequence[PrivateKeyShare]
                  ) -> List[List[PartialSignature]]:
    """``(z_i, r_i) = (H_1^{-A_1(i)} H_2^{-A_2(i)}, H_1^{-B_1(i)}
    H_2^{-B_2(i)})`` for every share, in order, on every hashed pair:
    one partial list per pair.  The 2 * len(shares) exponent rows are
    handed to :meth:`~repro.groups.api.BilinearGroup.multi_exp_windows`
    once, over all pairs, so they share its per-base and per-row work —
    on BN254, a quorum's rows (more rows than bases) are recoded once
    and double each ``(H_1, H_2)`` once, one share's two rows share
    odd-multiples tables.  ``hashed`` holds
    :meth:`LJYThresholdScheme.hashed`'s pairs.
    """
    rows = []
    for share in shares:
        rows.append((-share.a_1, -share.a_2))
        rows.append((-share.b_1, -share.b_2))
    partials = []
    for points in group.multi_exp_windows(hashed, rows):
        points = iter(points)
        partials.append([
            PartialSignature(index=share.index, z=z, r=r)
            for share, z, r in zip(shares, points, points)])
    return partials


def _coins(count: int, rng) -> List[int]:
    """Small-exponent batching coins, uniform over [1, 2^64] — 2^64
    nonzero values, matching the stated soundness bound.  Drawn by the
    verifier once the items they weigh are fixed, and never reused for
    another check."""
    return [random_scalar(1 << 64, rng) + 1 for _ in range(count)]


def _descend(value_of, lo: int, hi: int, value: GroupElement,
             companion: Optional[GroupElement] = None) -> List[int]:
    """Offending positions in ``[lo, hi)``, given that slice's coined
    G_T ``value`` (Law & Matt's quotient bisection) and, when the
    caller has one, its index-weighted ``companion`` (their exponent
    method).

    ``value_of(lo, hi)`` evaluates a slice under the coins its items
    were given for this localization.  Only the **left** half of a
    failing node is evaluated: the coins are fixed per item, so the
    right half's value is exactly ``value / left`` — one pairing
    product per level, and a root the caller already holds is never
    recomputed.  A one-item slice is exact (its coin is nonzero in a
    prime-order group); a wider slice hiding a forgery reads as the
    identity with probability at most 2^-64, so localizing over k
    items errs with probability at most (2k - 1) * 2^-64.

    The companion is the same slice with item i's coin multiplied by
    i + 1 (``value_of(lo, hi, weighted=True)``; no coin is drawn for
    it).  With ``value = prod x_i^{c_i}`` and ``companion = prod
    x_i^{c_i (i + 1)}``, ``companion == value^(k + 1)`` exactly when k
    is the slice's only offender, so a node first scans its positions
    by repeated G_T multiplication and names a lone offender with no
    further pairing.  A miss means at least two offend: a two-item
    node reports both, a wider one evaluates its left half as above
    and hands each half an exact pair — the whole pair when the other
    half is clean, else ``(left, left's companion)`` and the two
    quotients, the left companion being ``left^(lo + 1)`` for a single
    item and one weighted product otherwise.  A false hit at k needs
    ``sum_{i forged} c_i e_i (i - k) = 0 (mod r)`` with some forged
    i != k — probability at most 2^-64 over that item's coin, the
    weights being nonzero and distinct mod r — so a scan errs with
    probability at most (hi - lo) * 2^-64 and, the scans at one depth
    covering disjoint slices, the companion adds at most
    k * (ceil(log2 k) + 1) * 2^-64 to the bound above.
    """
    if value.is_identity():
        return []
    if hi - lo == 1:
        return [lo]
    if companion is None:
        mid = (lo + hi) // 2
        left = value_of(lo, mid)
        return (_descend(value_of, lo, mid, left)
                + _descend(value_of, mid, hi, value / left))
    power = value ** (lo + 1)
    for position in range(lo, hi):
        if power == companion:
            return [position]
        power = power * value
    # Narrowing onto a half keeps the pair, so the scan's verdict too.
    while hi - lo > 2:
        mid = (lo + hi) // 2
        left = value_of(lo, mid)
        if left.is_identity():
            lo = mid
        elif left == value:
            hi = mid
        else:
            left_companion = (left ** (lo + 1) if mid - lo == 1
                              else value_of(lo, mid, weighted=True))
            return (_descend(value_of, lo, mid, left, left_companion)
                    + _descend(value_of, mid, hi, value / left,
                               companion / left_companion))
    return list(range(lo, hi))


class LJYThresholdScheme:
    """Libert-Joye-Yung non-interactive threshold signatures (Section 3)."""

    def __init__(self, params: ThresholdParams):
        self.params = params
        self.group = params.group

    # ------------------------------------------------------------------
    # Key generation
    # ------------------------------------------------------------------
    def dealer_keygen(self, rng=None) -> KeygenOutput:
        """Centralized key generation (for tests and non-distributed use).

        Samples the four degree-t polynomials ``A_1, B_1, A_2, B_2`` a
        single honest dealer would use; the distributed protocol in
        :mod:`repro.dkg.pedersen_dkg` produces identically-shaped output.
        """
        order = self.group.order
        t, n = self.params.t, self.params.n
        polys = {
            (k, name): Polynomial.random(t, order, rng=rng)
            for k in (1, 2) for name in ("A", "B")
        }
        shares = {
            i: PrivateKeyShare(
                index=i,
                a_1=polys[(1, "A")](i), b_1=polys[(1, "B")](i),
                a_2=polys[(2, "A")](i), b_2=polys[(2, "B")](i),
            )
            for i in range(1, n + 1)
        }
        public_key = self.public_key_from_master(
            a_10=polys[(1, "A")].constant_term,
            b_10=polys[(1, "B")].constant_term,
            a_20=polys[(2, "A")].constant_term,
            b_20=polys[(2, "B")].constant_term,
        )
        verification_keys = {
            i: self.verification_key_for(shares[i]) for i in shares
        }
        return public_key, shares, verification_keys

    def public_key_from_master(self, a_10: int, b_10: int, a_20: int,
                               b_20: int) -> PublicKey:
        """``g_hat_k = g_z^{A_k(0)} g_r^{B_k(0)}`` — two 2-base multi-exps."""
        p = self.params
        bases = [p.g_z, p.g_r]
        return PublicKey(
            params=p,
            g_1=self.group.multi_exp(bases, [a_10, b_10]),
            g_2=self.group.multi_exp(bases, [a_20, b_20]),
        )

    def verification_key_for(self, share: PrivateKeyShare) -> VerificationKey:
        """``VK_i = (g_z^{A_1(i)} g_r^{B_1(i)}, g_z^{A_2(i)} g_r^{B_2(i)})``.

        In the distributed protocol anyone derives VK_i from the broadcast
        commitments; given the share itself this direct form is equivalent.
        """
        p = self.params
        bases = [p.g_z, p.g_r]
        return VerificationKey(
            index=share.index,
            v_1=self.group.multi_exp(bases, [share.a_1, share.b_1]),
            v_2=self.group.multi_exp(bases, [share.a_2, share.b_2]),
        )

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------
    def hashed(self, public_key: Optional[PublicKey],
               message: bytes) -> Tuple[GroupElement, GroupElement]:
        """``(H_1, H_2)``, the pair every equation of the scheme signs
        and checks: ``H(M)``, whatever ``public_key`` is.  The one seam
        the Appendix G scheme changes, to ``H(PK || M)``."""
        return self.params.hash_message(message)

    def share_sign(self, share: PrivateKeyShare,
                   message: bytes) -> PartialSignature:
        """Non-interactive partial signing (Share-Sign).

        ``z_i = H_1^{-A_1(i)} H_2^{-A_2(i)}``,
        ``r_i = H_1^{-B_1(i)} H_2^{-B_2(i)}`` — two exponent rows over
        the one hashed pair, so both share its precomputation.
        """
        return self.share_sign_many([share], [message])[0][0]

    def share_sign_many(self, shares: Sequence[PrivateKeyShare],
                        messages: Sequence[bytes]
                        ) -> List[List[PartialSignature]]:
        """Share-Sign for several local shares on several messages: one
        partial list per message, shares in the order given (see
        :func:`partials_over`).

        Shares are never combined with each other — each partial is
        exactly what :meth:`share_sign` returns for that share and
        message.
        """
        return partials_over(
            self.group, [self.hashed(None, message) for message in messages],
            shares)

    # ------------------------------------------------------------------
    # Verification: one equation, keyed by PK or VK_i
    # ------------------------------------------------------------------
    # A partial signature is the Section 2.3 one-time LHSPS signature on
    # (H_1, H_2) under share i's key VK_i = (V_1i, V_2i), and a signature
    # is the same under PK = (g_1, g_2), the key at index 0: Share-Verify
    # and Verify are one equation.  Every check below is ``_holds`` on
    # one item or a coined product from ``_values``.  Items are
    # ``(label, message, z, r)``, each checked under ``keys[label]``:
    # label 0 and PK for signatures, label i and VK_i for partials.

    def _holds(self, key: Tuple[GroupElement, GroupElement],
               hashed: Tuple[GroupElement, GroupElement],
               z: GroupElement, r: GroupElement) -> bool:
        """``e(z, g_z) e(r, g_r) e(H_1, K_1) e(H_2, K_2) = 1`` for
        ``key = (K_1, K_2)``: one multi-pairing of four pairs."""
        p = self.params
        (h_1, h_2), (k_1, k_2) = hashed, key
        return self.group.pairing_product_is_one(
            [(z, p.g_z), (r, p.g_r), (h_1, k_1), (h_2, k_2)])

    def share_verify(self, public_key: PublicKey,
                     verification_key: VerificationKey, message: bytes,
                     partial: PartialSignature) -> bool:
        """Share-Verify: the equation under ``VK_i = (V_1i, V_2i)``, for
        a partial of index i only."""
        return partial.index == verification_key.index and self._holds(
            (verification_key.v_1, verification_key.v_2),
            self.hashed(public_key, message), partial.z, partial.r)

    def verify(self, public_key: PublicKey, message: bytes,
               signature: Signature) -> bool:
        """Verify: the equation under ``PK = (g_1, g_2)``."""
        return self._holds(
            (public_key.g_1, public_key.g_2),
            self.hashed(public_key, message), signature.z, signature.r)

    def _values(self, public_key: PublicKey,
                keys: Mapping[int, Tuple[GroupElement, GroupElement]],
                items: Sequence[Tuple[int, bytes, GroupElement,
                                      GroupElement]],
                coins: Sequence[int]):
        """``value_of(lo, hi, weighted=False)``: the G_T value of the
        equations of ``items[lo:hi]``, each raised to its own coin — the
        identity iff (up to the batching bound) every one holds.
        ``weighted`` multiplies item i's coin by i + 1: the companion
        :func:`_descend` names a lone offender from (about 70 bits for
        any real window, still a small exponent).

        By bilinearity a slice collapses to ``2 + 2 * labels`` pairs —
        ``(z_agg, g_z)``, ``(r_agg, g_r)`` and one ``(H_1-agg, K_1)`` /
        ``(H_2-agg, K_2)`` pair per key in the slice — so every G_hat
        argument stays a *fixed, Miller-loop-prepared* point and an
        item costs a few small-exponent MSM terms.  One key's items
        (signatures, or one signer's partials) are four pairs whatever
        the slice.
        """
        p = self.params
        group = self.group
        z_points = [z for _, _, z, _ in items]
        r_points = [r for _, _, _, r in items]
        group.batch_normalize(z_points + r_points)
        hashes: Dict[bytes, Tuple[GroupElement, GroupElement]] = {}
        for _, message, _, _ in items:
            if message not in hashes:
                hashes[message] = self.hashed(public_key, message)

        def value_of(lo: int, hi: int,
                     weighted: bool = False) -> GroupElement:
            exponents = coins[lo:hi]
            if weighted:
                exponents = [coin * weight for weight, coin
                             in enumerate(exponents, lo + 1)]
            # The keys are the only G_hat arguments items do not share,
            # so one MSM pair per *distinct* key is the finest the
            # product collapses to.
            buckets: Dict[int, Tuple[list, list, list]] = {}
            for exponent, (label, message, _, _) in zip(
                    exponents, items[lo:hi]):
                h_1s, h_2s, exps = buckets.setdefault(label, ([], [], []))
                h_1, h_2 = hashes[message]
                h_1s.append(h_1)
                h_2s.append(h_2)
                exps.append(exponent)
            pairs = [
                (group.multi_exp(z_points[lo:hi], exponents), p.g_z),
                (group.multi_exp(r_points[lo:hi], exponents), p.g_r),
            ]
            for label in sorted(buckets):
                h_1s, h_2s, exps = buckets[label]
                k_1, k_2 = keys[label]
                pairs.append((group.multi_exp(h_1s, exps), k_1))
                pairs.append((group.multi_exp(h_2s, exps), k_2))
            return group.pairing_product(pairs)

        return value_of

    def _check(self, public_key: PublicKey, keys, items, rng) -> bool:
        """One coined product over ``items``, the coins drawn here,
        after the items are fixed: a batch holding any failing equation
        passes with probability at most 2^-64 over them (standard
        small-exponent batching).  A single item is its plain equation;
        an empty batch passes."""
        if len(items) == 1:
            label, message, z, r = items[0]
            return self._holds(keys[label], self.hashed(public_key, message),
                               z, r)
        return not items or self._values(
            public_key, keys, items, _coins(len(items), rng)
        )(0, len(items)).is_identity()

    def _locate(self, public_key: PublicKey, keys, items,
                rng) -> List[int]:
        """Positions (into ``items``) of failing equations, localized
        from coined values (:func:`_descend`); [] when all hold.

        The items are taken label-major (arrival order within a label),
        so each sub-batch touches few keys, and the coins are drawn
        once, after the items are fixed: the root, its companion and
        every sub-batch reuse their items' coins.  A passing root is
        all an honest batch costs.  Under one key — signatures, or what
        :meth:`combine_window` asks about, one signer's partials — every
        slice is four pairs, so a failing root gets its index-weighted
        companion and a lone offender is named from the pair.  Several
        keys descend without one: their root is the batch's dearest
        product (2 + 2 * keys pairs), and one key's offenders sit
        adjacent, where no lone offender is there to name.  A single
        item is its plain equation.
        """
        order = sorted(range(len(items)),
                       key=lambda position: items[position][0])
        if len(order) <= 1:
            return [] if self._check(public_key, keys, items, rng) else order
        items = [items[position] for position in order]
        value_of = self._values(public_key, keys, items,
                                _coins(len(items), rng))
        value = value_of(0, len(items))
        companion = None
        # Label-major order: equal ends mean one key throughout.
        if not value.is_identity() and items[0][0] == items[-1][0]:
            companion = value_of(0, len(items), weighted=True)
        return sorted(order[offset] for offset in _descend(
            value_of, 0, len(items), value, companion))

    @staticmethod
    def _signed(public_key: PublicKey, messages: Sequence[bytes],
                signatures: Sequence[Signature]):
        """``(keys, items)`` for signatures: each under PK, label 0."""
        if len(messages) != len(signatures):
            raise ParameterError("need exactly one signature per message")
        return ({0: (public_key.g_1, public_key.g_2)},
                [(0, message, signature.z, signature.r)
                 for message, signature in zip(messages, signatures)])

    @staticmethod
    def _keyed(verification_keys: Mapping[int, VerificationKey],
               items: Sequence[Tuple[bytes, PartialSignature]]):
        """``(keys, checked, positions, keyless)`` for ``(message,
        partial)`` items: those whose signer has a verification key
        filed under its own index become ``checked`` items, taken from
        ``positions``; the rest are ``keyless``, invalid whatever they
        carry.  One ``verification_keys.get`` per item."""
        keys: Dict[int, Tuple[GroupElement, GroupElement]] = {}
        checked, positions, keyless = [], [], []
        for position, (message, partial) in enumerate(items):
            vk = verification_keys.get(partial.index)
            if vk is None or vk.index != partial.index:
                keyless.append(position)
                continue
            keys[partial.index] = (vk.v_1, vk.v_2)
            checked.append((partial.index, message, partial.z, partial.r))
            positions.append(position)
        return keys, checked, positions, keyless

    def batch_verify(self, public_key: PublicKey,
                     messages: Sequence[bytes],
                     signatures: Sequence[Signature],
                     rng=None) -> bool:
        """Verify signatures on many **distinct messages** with one
        coined four-pair product (:meth:`_check`) — the server-side
        amortization: a few 64-bit MSM terms a message instead of a
        four-pair product.  True for an empty batch; use
        :meth:`locate_invalid` to name offenders when a batch fails.
        """
        return self._check(
            public_key, *self._signed(public_key, messages, signatures), rng)

    def locate_invalid(self, public_key: PublicKey,
                       messages: Sequence[bytes],
                       signatures: Sequence[Signature],
                       rng=None) -> List[int]:
        """Indices of invalid signatures (:meth:`_locate`): one coined
        product when all are valid, its index-weighted companion more
        to name a lone forgery, quotient bisection to split several.
        """
        return self._locate(
            public_key, *self._signed(public_key, messages, signatures), rng)

    def batch_share_verify_window(
            self, public_key: PublicKey,
            verification_keys: Mapping[int, VerificationKey],
            items: Sequence[Tuple[bytes, PartialSignature]],
            rng=None) -> bool:
        """Share-Verify ``(message, partial)`` items across many messages
        and signers with one coined product of ``2 + 2 * signers`` pairs
        (:meth:`_check`).  False when any item's signer has no
        verification key; True for an empty batch.
        """
        keys, checked, _, keyless = self._keyed(verification_keys, items)
        return not keyless and self._check(public_key, keys, checked, rng)

    def locate_invalid_partials(
            self, public_key: PublicKey,
            verification_keys: Mapping[int, VerificationKey],
            items: Sequence[Tuple[bytes, PartialSignature]],
            rng=None) -> List[int]:
        """Positions of invalid ``(message, partial)`` items: those
        :meth:`_locate` names, signer-major, and every item whose signer
        has no verification key, which never enters a product."""
        keys, checked, positions, keyless = self._keyed(
            verification_keys, items)
        return sorted(keyless + [positions[offset] for offset in self._locate(
            public_key, keys, checked, rng)])

    # ------------------------------------------------------------------
    # Combining and verification
    # ------------------------------------------------------------------
    def combine(self, public_key: PublicKey,
                verification_keys: Mapping[int, VerificationKey],
                message: bytes,
                partials: Iterable[PartialSignature],
                verify_shares: bool = True,
                rng=None) -> Signature:
        """Combine (Section 2.1): the message's signature whenever t+1
        valid partial signatures are among ``partials``, whatever else
        arrived with them — forged partials, a forged duplicate of an
        honest index, signers without a verification key — and
        :class:`CombineError` otherwise.  Signatures are unique, so any
        t+1 valid partials give the same bytes.

        This is :meth:`combine_window` on a window of one message: the
        first t+1 distinct-index partials are interpolated and the
        result is checked with one Verify — all an honest call costs.
        While that fails, the partials in use are checked one signer at
        a time; a forged one is dropped and replaced from the rest, and
        the signature is recombined and checked again.  Every signature
        returned has passed Verify.  A forger convicted here emits the
        conviction line the service does on logger
        ``repro.core.scheme``, with epoch 0 and window 1.

        ``verify_shares=False`` is the interpolation alone: the first
        t+1 distinct-index partials through :meth:`_interpolate` — the
        one interpolation path, which :meth:`combine_window` runs over a
        whole window — nothing checked.
        """
        if verify_shares:
            (signature,), _ = self.combine_window(
                public_key, verification_keys, [(message, list(partials))],
                rng=rng)
            if signature is None:
                raise CombineError(
                    f"need {self.params.t + 1} valid partial signatures")
            return signature
        t = self.params.t
        usable: Dict[int, PartialSignature] = {}
        for partial in partials:
            if partial.index in usable:
                continue
            usable[partial.index] = partial
            if len(usable) == t + 1:
                break
        if len(usable) < t + 1:
            raise CombineError(
                f"need {t + 1} valid partial signatures, got {len(usable)}")
        return self._interpolate([usable])[0]

    def _interpolate(
            self, requests: Sequence[Mapping[int, PartialSignature]]
    ) -> List[Signature]:
        """"Lagrange in the exponent" for many requests at once, each a
        map from signer index to one of its t+1 partials: ``z = prod
        z_i^{lambda_i}`` and ``r = prod r_i^{lambda_i}``.

        Requests over the same signer set share one Lagrange row, so all
        their z- and r-partials go to ONE
        :meth:`~repro.groups.api.BilinearGroup.multi_exp_windows` call
        (on BN254, one normalization for every set's tables, each table
        only as long as the row's digits need: lambda = +-3 takes P and
        3P).  Coefficient rows are memoized per signer set, and the
        partials are batch-normalized first with one shared inversion —
        a no-op for the Share-Sign kernel's affine output — so every
        later consumer of the same points finds them affine too.
        """
        group = self.group
        group.batch_normalize([point for partials in requests
                               for partial in partials.values()
                               for point in (partial.z, partial.r)])
        by_signers: Dict[Tuple[int, ...], List[int]] = {}
        for position, partials in enumerate(requests):
            by_signers.setdefault(tuple(sorted(partials)), []).append(
                position)
        signatures: List[Signature] = [None] * len(requests)
        for signers, positions in by_signers.items():
            coefficients = lagrange_at_zero(signers, group.order)
            base_sets = []
            for position in positions:
                partials = requests[position]
                base_sets.append([partials[index].z for index in signers])
                base_sets.append([partials[index].r for index in signers])
            products = iter(group.multi_exp_windows(
                base_sets, [[coefficients[index] for index in signers]]))
            for position, (z,), (r,) in zip(positions, products, products):
                signatures[position] = Signature(z=z, r=r)
        return signatures

    # ------------------------------------------------------------------
    # Window-sized entry points (the serving-layer amortization)
    # ------------------------------------------------------------------
    def combine_window(self, public_key: PublicKey,
                       verification_keys: Mapping[int, VerificationKey],
                       windows: Sequence[
                           Tuple[bytes, Sequence[PartialSignature]]],
                       rng=None, top_up=None,
                       suspects: Optional["Suspects"] = None
                       ) -> Tuple[List[Optional[Signature]], List[int]]:
        """Combine one batch window of ``(message, partials)`` requests.

        Each request combines its first t+1 distinct-index partials
        unverified — all of them in one :meth:`_interpolate` call, one
        MSM call per signer set in use — and **one** cross-message
        coined product (:meth:`batch_verify`) checks the window: k
        honest requests cost one interpolation call and a single
        multi-pairing.  That check
        is the robust path's ground truth.  While it fails, the next
        signer with unchecked partials in use — ``suspects.last``
        first, then by index — has them localized across the window
        (:meth:`locate_invalid_partials`: four pairs a product); what
        that names is dropped and refilled, from the request's spare
        partials, then from ``top_up(message, asked_indices,
        missing)`` — up to ``missing`` partials of signers not in
        ``asked_indices``; those positions recombine and the window is
        checked again.  After a window that convicted someone
        (``suspects.hot``) that signer's round runs *ahead of* the
        first check, which is doomed if it forges again; an honest
        window pays that one product once.

        Soundness: coins (:func:`_coins`) are drawn inside each check,
        after the items they weigh are fixed.  Refills enter
        unverified, but every signature returned has passed a window
        check since it was last recombined (error at most 2^-64 per
        check), so a wrong localization costs a round, never an
        output; a signer's slice is localized within the bound
        :func:`_descend` states.  A round clears or drops every
        unchecked partial of its signer, so there is at most one per
        signer with unchecked partials in use (one more per duplicate
        index a refill brings in); a window that still fails with none
        left — keys that do not match ``public_key`` — fails the
        positions :meth:`locate_invalid` names instead of emitting
        them.

        Returns ``(signatures, flagged)``: the positions that needed
        more than their first t+1 partials as they arrived — a forged
        one dropped, or a ``top_up`` asked — with ``None`` for a
        signature where t+1 good ones were not to be had.
        """
        t = self.params.t
        suspects = suspects or Suspects()
        messages = [message for message, _ in windows]
        spare = [list(partials) for _, partials in windows]
        asked = [{partial.index for partial in queue} for queue in spare]
        in_use: List[Dict[int, PartialSignature]] = [{} for _ in windows]
        #: (position, signer) of every partial in use no round has checked.
        unchecked: Set[Tuple[int, int]] = set()
        signatures: List[Optional[Signature]] = [None] * len(windows)
        flagged: Set[int] = set()
        convictions = []

        def fill(position: int) -> None:
            chosen, queue = in_use[position], spare[position]
            while len(chosen) <= t:
                usable = [partial for partial in queue
                          if partial.index not in chosen]
                if not usable:
                    flagged.add(position)       # short of what arrived
                    if top_up is None:
                        return
                    usable = [partial for partial in top_up(
                        messages[position], asked[position],
                        t + 1 - len(chosen))
                        if partial.index not in asked[position]]
                    if not usable:
                        return
                    asked[position].update(p.index for p in usable)
                    queue.extend(usable)
                queue.remove(usable[0])
                chosen[usable[0].index] = usable[0]
                unchecked.add((position, usable[0].index))

        def check(signer: int, first: bool = False) -> List[int]:
            """One round; returns the positions it dropped from."""
            held = sorted(position for position, index in unchecked
                          if index == signer)
            unchecked.difference_update(
                (position, signer) for position in held)
            named = [held[offset] for offset in self.locate_invalid_partials(
                public_key, verification_keys,
                [(messages[position], in_use[position][signer])
                 for position in held], rng=rng)]
            for position in named:
                del in_use[position][signer]
                flagged.add(position)
                fill(position)
            if named:
                convictions.append((signer, named, first))
            return named

        for position in range(len(windows)):
            fill(position)
        if suspects.hot:
            check(suspects.last, first=True)
        stale: Sequence[int] = range(len(windows))
        while stale:
            ready = [position for position in stale
                     if len(in_use[position]) > t]
            for position in stale:
                signatures[position] = None
            for position, signature in zip(ready, self._interpolate(
                    [in_use[position] for position in ready])):
                signatures[position] = signature
            combined = [position for position, signature
                        in enumerate(signatures) if signature is not None]
            window = ([messages[position] for position in combined],
                      [signatures[position] for position in combined])
            if self.batch_verify(public_key, *window, rng=rng):
                break
            for signer in sorted(
                    {index for _, index in unchecked},
                    key=lambda index: (index != suspects.last, index)):
                stale = check(signer)
                if stale:
                    break
            else:
                stale = []
                for offset in self.locate_invalid(
                        public_key, *window, rng=rng):
                    signatures[combined[offset]] = None
                    flagged.add(combined[offset])
        suspects.settle(len(windows), convictions)
        return signatures, sorted(flagged)

    def verify_window(self, public_key: PublicKey,
                      messages: Sequence[bytes],
                      signatures: Sequence[Signature],
                      rng=None) -> List[bool]:
        """Per-request verdicts for one batch window of verify requests.

        One coined multi-pairing in the all-valid case; otherwise
        :meth:`locate_invalid` names the offenders from that value —
        one more product for a lone forgery — so a window with few
        forgeries still amortizes.
        """
        invalid = set(self.locate_invalid(public_key, messages, signatures,
                                          rng=rng))
        return [index not in invalid for index in range(len(messages))]

    # ------------------------------------------------------------------
    # Centralized signing (used by tests and the security reductions)
    # ------------------------------------------------------------------
    def sign_with_master(self, master: Tuple[int, int, int, int],
                         message: bytes) -> Signature:
        """Sign directly with the master key ``(A_1(0), B_1(0), A_2(0),
        B_2(0))`` — what the combined signature must equal."""
        a_10, b_10, a_20, b_20 = master
        bases = list(self.hashed(None, message))
        z = self.group.multi_exp(bases, [-a_10, -a_20])
        r = self.group.multi_exp(bases, [-b_10, -b_20])
        return Signature(z=z, r=r)


class Suspects:
    """The signer :meth:`LJYThresholdScheme.combine_window` last
    convicted of forging: where its robust path looks first.
    Combiner-side, never on the wire, gone with the epoch (each
    :class:`ServiceHandle` starts a clean one; a refresh is the
    paper's recovery from corruption)."""

    def __init__(self, epoch: int = 0):
        self.epoch = epoch
        self.last: Optional[int] = None
        #: The window just before convicted ``last``: check it first.
        self.hot = False

    def settle(self, window: int, convictions) -> None:
        """File a window's ``(signer, positions, checked_first)``
        convictions, a JSON log line each."""
        for signer, positions, first in convictions:
            self.last = signer
            _LOG.info("%s", json.dumps({
                "event": "conviction", "signer": signer,
                "epoch": self.epoch, "window": window,
                "positions": positions, "checked_first": first}))
        self.hot = bool(convictions)


class ServiceHandle:
    """A facade bundling scheme, keys and quorum policy — the supported
    entry point for applications and for the async signing service.

    Applications kept re-assembling the same four objects (params,
    scheme, key shares, verification keys) and re-deriving quorums by
    hand; the handle owns them and exposes the task-level operations:
    ``sign`` / ``verify`` for one-off calls, ``sign_window`` /
    ``verify_window`` for the amortized batch paths the service layer
    dispatches, and ``partials_for`` for callers that split signing from
    combining (a shard worker, a distributed combiner).

    ``scheme`` is a :class:`LJYThresholdScheme` — the Appendix G
    :class:`~repro.core.aggregation.LJYAggregateScheme` included, which
    differs only in :meth:`LJYThresholdScheme.hashed` — so every path
    works the same for both (the remote worker tier excepted: see
    :func:`~repro.serialization.encode_service_context`).
    """

    def __init__(self, scheme: LJYThresholdScheme, public_key,
                 shares: Mapping[int, PrivateKeyShare],
                 verification_keys: Mapping[int, VerificationKey],
                 epoch: int = 0):
        self.scheme = scheme
        self.public_key = public_key
        self.shares = dict(shares)
        self.verification_keys = dict(verification_keys)
        #: Key-lifecycle generation.  Every refresh/reshare/recovery
        #: produces a *new* handle with ``epoch + 1`` and the same
        #: public key; the service layer uses the epoch to fence worker
        #: contexts and WAL records against stale key material.
        self.epoch = epoch
        self._suspects = Suspects(epoch)
        self._signer_ring = sorted(self.shares)

    # -- construction -------------------------------------------------------
    @classmethod
    def dealer(cls, group: BilinearGroup, t: int, n: int,
               rng=None, label: str = "LJY14") -> "ServiceHandle":
        """Trusted-dealer setup: params + scheme + keys in one call."""
        params = ThresholdParams.generate(group, t, n, label=label)
        scheme = LJYThresholdScheme(params)
        pk, shares, vks = scheme.dealer_keygen(rng=rng)
        return cls(scheme, pk, shares, vks)

    @classmethod
    def from_dkg(cls, group: BilinearGroup, t: int, n: int, rng=None,
                 adversary=None, label: str = "LJY14"):
        """Fully distributed setup via Pedersen's one-round DKG.

        Returns ``(handle, network)`` — the handle holds every honest
        player's share (this is a local simulation; a deployment keeps
        each share on its own server), the network carries the
        communication metrics.
        """
        from repro.dkg import dkg_result_to_keys, run_pedersen_dkg
        params = ThresholdParams.generate(group, t, n, label=label)
        scheme = LJYThresholdScheme(params)
        results, network = run_pedersen_dkg(
            group, params.g_z, params.g_r, t, n,
            adversary=adversary, rng=rng)
        first = next(iter(results))
        public_key, _, verification_keys = dkg_result_to_keys(
            scheme, results[first])
        shares = {
            index: dkg_result_to_keys(scheme, result)[1]
            for index, result in results.items()
        }
        return cls(scheme, public_key, shares, verification_keys), network

    # -- key lifecycle ------------------------------------------------------
    # Each operation returns a NEW handle at ``epoch + 1`` under the
    # byte-identical public key; the caller (typically
    # ``SigningService.begin_epoch``) swaps it in atomically.  Signatures
    # are unique per message, so a request signed under either handle
    # yields the same bytes — epoch transitions cannot change results,
    # only which shares produce them.

    def refreshed(self, rng=None, adversary=None) -> "ServiceHandle":
        """Proactive refresh (Section 3.3): same committee, re-randomized
        shares, updated VKs, public key unchanged."""
        from repro.dkg.refresh import run_refresh
        params = self.scheme.params
        new_shares, new_vks, _ = run_refresh(
            params.group, params.g_z, params.g_r, params.t, params.n,
            self.shares, self.verification_keys,
            adversary=adversary, rng=rng)
        return ServiceHandle(self.scheme, self.public_key, new_shares,
                             new_vks, epoch=self.epoch + 1)

    def reshared(self, new_t: int, new_indices: Sequence[int],
                 rng=None, adversary=None) -> "ServiceHandle":
        """Reshare to a new (t', n') committee (signer join/leave).

        The reshare transcript is checked against the current public
        key (see :mod:`repro.dkg.reshare`), so the returned handle
        provably signs for the same key.  A changed threshold gets a
        new scheme over the *same* generators and hash domain, keeping
        signatures byte-compatible across the transition.
        """
        from repro.dkg.reshare import run_reshare
        params = self.scheme.params
        new_shares, new_vks, _ = run_reshare(
            params.group, params.g_z, params.g_r, params.t, new_t,
            new_indices, self.shares, self.verification_keys,
            public_key=self.public_key, adversary=adversary, rng=rng)
        scheme = self.scheme
        public_key = self.public_key
        if new_t != params.t or len(new_shares) != params.n:
            new_params = ThresholdParams(
                group=params.group, t=new_t, n=len(new_shares),
                g_z=params.g_z, g_r=params.g_r,
                hash_domain=params.hash_domain)
            scheme = type(self.scheme)(new_params)
            public_key = PublicKey(params=new_params,
                                   g_1=self.public_key.g_1,
                                   g_2=self.public_key.g_2)
        return ServiceHandle(scheme, public_key, new_shares, new_vks,
                             epoch=self.epoch + 1)

    def without_signer(self, index: int) -> "ServiceHandle":
        """Drop a crashed/compromised signer's share (its public VK is
        kept so the share can be recovered later)."""
        if index not in self.shares:
            raise ParameterError(f"no share for signer {index}")
        if len(self.shares) - 1 < self.threshold + 1:
            raise ParameterError(
                "dropping this signer would leave fewer than t+1 shares")
        remaining = {i: s for i, s in self.shares.items() if i != index}
        return ServiceHandle(self.scheme, self.public_key, remaining,
                             self.verification_keys, epoch=self.epoch + 1)

    def with_recovered(self, index: int) -> "ServiceHandle":
        """Herzberg-style share recovery: t+1 helpers interpolate the
        lost share at the victim's index (never at zero), and the victim
        rejoins the signer ring in the next epoch."""
        from repro.dkg.refresh import recover_share
        if index in self.shares:
            raise ParameterError(f"signer {index} already holds a share")
        if index not in self.verification_keys:
            raise ParameterError(
                f"no verification key for signer {index} — recovery "
                "re-derives a share of the *current* sharing only")
        helpers = dict(self.shares)
        recovered = recover_share(self.scheme, index, helpers)
        shares = dict(self.shares)
        shares[index] = recovered
        return ServiceHandle(self.scheme, self.public_key, shares,
                             self.verification_keys, epoch=self.epoch + 1)

    # -- quorum policy ------------------------------------------------------
    @property
    def threshold(self) -> int:
        return self.scheme.params.t

    @property
    def suspects(self) -> Tuple[int, ...]:
        """The last convicted signer, if any (:class:`Suspects`)."""
        last = self._suspects.last
        return () if last is None else (last,)

    def quorum(self, rotation: int = 0) -> List[int]:
        """A t+1 signer quorum, rotated so load spreads over all servers."""
        ring = self._signer_ring
        size = self.threshold + 1
        start = rotation % len(ring)
        doubled = ring + ring
        return doubled[start:start + size]

    # -- signing ------------------------------------------------------------
    def partials_for(self, message: bytes,
                     signers: Optional[Sequence[int]] = None
                     ) -> List[PartialSignature]:
        """Partial signatures from ``signers`` (default: the first quorum)."""
        return self.partials_with_faults(
            [message], self.quorum() if signers is None else signers)[0]

    def partials_with_faults(self, messages: Sequence[bytes],
                             signers: Sequence[int],
                             fault_injector=None,
                             shard_id: int = 0
                             ) -> List[List[PartialSignature]]:
        """Partial signatures from ``signers`` on every message, one
        list per message, with every partial run through a service-layer
        fault injector (see :mod:`repro.service.faults`) once after
        signing: message-major, in signer order.
        The single producer of a window's partials — at arrival (a
        shard pre-signing while its window forms), at close (every
        position not pre-signed, in one call), on a remote worker, or as
        a top-up — so injector semantics cannot diverge between them.
        """
        signers = list(signers)
        produced = partials_over(
            self.scheme.group,
            [self.scheme.hashed(self.public_key, message)
             for message in messages],
            [self.shares[index] for index in signers])
        if fault_injector is None:
            return produced
        return [
            [fault_injector(shard_id, index, message, partial)
             for index, partial in zip(signers, partials)]
            for message, partials in zip(messages, produced)
        ]

    def process_sign_window(self, messages: Sequence[bytes],
                            quorum: Optional[Sequence[int]] = None,
                            fault_injector=None, shard_id: int = 0,
                            rng=None,
                            presigned: Optional[Mapping[int, list]] = None):
        """Serve one batch window of sign requests end to end.

        Produces the quorum's partial signatures for every window
        position ``presigned`` holds none for (the caller vouches its
        partials are this handle's and quorum's) in ONE
        :meth:`partials_with_faults` call, running ``fault_injector``
        over each when given (see :mod:`repro.service.faults`), and
        combines the window through
        :meth:`LJYThresholdScheme.combine_window` (one cross-message
        batch check) with this handle's :class:`Suspects`.  A request
        whose quorum held a forged partial drops it and tops up from
        the next signers after the quorum in ring order — through
        :meth:`partials_with_faults`, so the injector sees every
        partial once and a persistent fault still applies — so it
        completes whenever t+1 honest servers exist.

        Returns a :class:`~repro.serialization.SignWindowOutcome` — the
        shard workers of :mod:`repro.service.shards` and the remote
        workers of :mod:`repro.service.transport` both dispatch here, so
        the in-process and remote tiers serve the identical contract.
        Its ``fallback_combines`` counts the requests that needed
        partials from beyond their quorum.
        """
        from repro.serialization import SignWindowOutcome
        indices = self.quorum() if quorum is None else list(quorum)
        presigned = presigned or {}
        unsigned = [position for position in range(len(messages))
                    if not presigned.get(position)]
        made = {}
        if unsigned:
            made = dict(zip(unsigned, self.partials_with_faults(
                [messages[position] for position in unsigned], indices,
                fault_injector=fault_injector, shard_id=shard_id)))
        windows = [
            (message, presigned.get(position) or made[position])
            for position, message in enumerate(messages)
        ]
        ring = self._signer_ring
        after = ring.index(indices[-1]) + 1 if indices else 0
        reserve = [index for index in ring[after:] + ring[:after]
                   if index not in indices]
        topped_up = 0

        def top_up(message, asked, missing):
            nonlocal topped_up
            if asked.isdisjoint(reserve):
                # This request's first step beyond its quorum.
                topped_up += 1
            return self.partials_with_faults(
                [message],
                [index for index in reserve if index not in asked][:missing],
                fault_injector=fault_injector, shard_id=shard_id)[0]

        signatures, flagged = self.scheme.combine_window(
            self.public_key, self.verification_keys, windows, rng=rng,
            top_up=top_up, suspects=self._suspects)
        failures = [
            (position,
             f"sign failed: fewer than {self.threshold + 1} valid partial "
             f"signatures among all {len(self._signer_ring)} signers")
            for position, signature in enumerate(signatures)
            if signature is None]
        return SignWindowOutcome(
            signatures=tuple(signatures), flagged=tuple(flagged),
            failures=tuple(failures), fallback_combines=topped_up)

    def sign(self, message: bytes,
             signers: Optional[Sequence[int]] = None) -> Signature:
        """Share-sign with ``signers`` (default: the first quorum) and
        interpolate, unchecked — this handle's own shares, so nothing
        arrives that needs checking.  ``sign_window([message])`` is the
        robust one-message form.  Raises
        :class:`~repro.errors.CombineError` for fewer than t+1 signers.
        """
        return self.scheme.combine(
            self.public_key, self.verification_keys, message,
            self.partials_for(message, signers), verify_shares=False)

    def sign_window(self, messages: Sequence[bytes],
                    signers: Optional[Sequence[int]] = None,
                    rng=None) -> List[Signature]:
        """Sign a whole batch window with one cross-message check.

        :meth:`process_sign_window` with no injector: a request whose
        quorum contributed a forged partial tops up from the rest of the
        signer ring, and :class:`~repro.errors.CombineError` is raised
        at the first position that still lacks t+1 valid partial
        signatures.
        """
        outcome = self.process_sign_window(messages, signers, rng=rng)
        if outcome.failures:
            raise CombineError(
                f"need {self.threshold + 1} valid partial signatures for "
                f"window position {outcome.failures[0][0]}")
        return list(outcome.signatures)

    # -- verification -------------------------------------------------------
    def verify(self, message: bytes, signature: Signature) -> bool:
        return self.scheme.verify(self.public_key, message, signature)

    def verify_window(self, messages: Sequence[bytes],
                      signatures: Sequence[Signature],
                      rng=None) -> List[bool]:
        return self.scheme.verify_window(
            self.public_key, messages, signatures, rng=rng)


def random_master_key(group: BilinearGroup,
                      rng=None) -> Tuple[int, int, int, int]:
    """A uniformly random master key (for centralized/benchmark use)."""
    return tuple(random_scalar(group.order, rng) for _ in range(4))


def interpolate_key(
        shares: Sequence[PrivateKeyShare], order: int, t: int,
        x: int = 0) -> Tuple[int, int, int, int]:
    """``(A_1(x), B_1(x), A_2(x), B_2(x))`` from the first t+1 shares.

    At ``x = i`` this re-derives player i's share (Herzberg-style
    recovery, :func:`repro.dkg.refresh.recover_share`); at zero it is
    the master key, which only :func:`reconstruct_master_key` asks for.
    """
    if len(shares) < t + 1:
        raise ParameterError("not enough shares to reconstruct")
    subset = list(shares)[: t + 1]
    coefficients = lagrange_coefficients(
        [s.index for s in subset], order, x=x)
    totals = [0, 0, 0, 0]
    for share in subset:
        weight = coefficients[share.index]
        totals[0] = (totals[0] + weight * share.a_1) % order
        totals[1] = (totals[1] + weight * share.b_1) % order
        totals[2] = (totals[2] + weight * share.a_2) % order
        totals[3] = (totals[3] + weight * share.b_2) % order
    return tuple(totals)


def reconstruct_master_key(
        shares: Sequence[PrivateKeyShare], order: int,
        t: int) -> Tuple[int, int, int, int]:
    """Recover ``(A_1(0), B_1(0), A_2(0), B_2(0))`` from t+1 shares.

    Exists for tests and for the storage experiment; the protocol never
    reconstructs the master key anywhere.
    """
    return interpolate_key(shares, order, t)
