"""Golden digest: the exact bytes of one ``GET /metrics`` exposition.

``tests/test_gateway.py`` reconciles a live scrape against the stats it
came from; this file pins what a scraper reads.  An unstarted service
and gateway are filled with a fixed, non-zero state — two shards,
worker-tier stats, epoch lists, two tenants, gateway routes — the
process-wide crypto counters are patched to fixed values, and the
SHA-256 of the rendered exposition is compared against the digest
recorded here.  A family renamed, relabelled, reordered or re-helped,
or a sample added or dropped, fails here even when every
reconciliation still holds.  Beside it: every stats field is
declared, ``docs/HTTP_API.md`` tabulates every declared family, and a
seeded sweep of truncations and bit flips of the same exposition finds
``parse_prometheus`` refusing with ``ValueError`` or parsing, nothing
else (rerun a failure with ``--seed N``).
"""

import dataclasses
import hashlib
import pathlib
import random
import re

from repro.core.scheme import ServiceHandle
from repro.curves.hash_to_curve import HASH_COUNTERS
from repro.curves.pairing import PAIRING_COUNTERS
from repro.math.msm import MSM_COUNTERS
from repro.net.metrics import (
    Histogram, Metric, declarations, parse_prometheus, render_prometheus,
)
from repro.service import HttpGateway, SigningService, TenantConfig
from repro.service.gateway import CRYPTO_OPS, GatewayStats
from repro.service.tenants import TenantStats
from repro.service.types import (
    EpochStats, ServiceStats, ShardStats, WorkerPoolStats,
)
from repro.sharing.pedersen_vss import DKG_COUNTERS

GOLDEN_SHA256 = (
    "a8274de1793b9662cb9b1a6cfa1bded87cb4b622773186bc03c2a154d460f291")


def filled(record, **values):
    """``record`` with every field set from ``values`` — all of them,
    each non-zero, so a field the exposition reads cannot sit at its
    default here."""
    names = {field.name for field in dataclasses.fields(record)}
    assert set(values) == names, set(values) ^ names
    for name, value in values.items():
        assert value, name
        setattr(record, name, value)
    return record


def shard(scale: int) -> ShardStats:
    return filled(
        ShardStats(), batched_requests=61 * scale, windows=7 * scale,
        full_windows=3 * scale, faults_localized=2 * scale,
        fallback_combines=scale, expired=3 * scale, migrated=4 * scale,
        presigned=9 * scale, busy_ms=812.3456789 * scale)


def histogram(*observations) -> Histogram:
    result = Histogram()
    for value in observations:
        result.observe(value)
    return result


def golden_exposition(monkeypatch, toy_group) -> str:
    handle = ServiceHandle.dealer(toy_group, 2, 5, rng=random.Random(7))
    service = SigningService(handle)
    filled(
        service.stats, accepted=120, rejected=5, completed=110, failed=3,
        expired=4, recovered=2,
        ingress_messages=125, ingress_bytes=9876, egress_messages=110,
        egress_bytes=5432,
        tenant_accepted={"alpha": 80, "beta": 40},
        shards={0: shard(1), 1: shard(2)},
        workers=filled(
            WorkerPoolStats(), workers=2, jobs=30, crashes=1,
            resubmissions=2, reconnects=1, timeouts=1, breaker_trips=1,
            rewarms=3, max_inflight=4),
        epochs=filled(
            EpochStats(), epoch=5, requests_carried=6, transitions=dict(
                swap=0, refresh=2, reshare=1, retire=0, recover=1, resize=1),
            pauses_ms=[0.4, 3.2, 27.5, 480.0, 12000.0],
            derive_ms=[35.25, 260.0, 1800.5, 4.0]))
    gateway = HttpGateway(service, tenants=[
        TenantConfig(name="beta", api_key="beta-key", rate_rps=1.0),
        TenantConfig(name="alpha", api_key="alpha-key", admin=True),
    ])
    filled(gateway.stats, requests_total={
        ("/v1/sign", 200): 110, ("/v1/sign", 429): 15,
        ("/metrics", 200): 3, ("other", 404): 1}, inflight=1, request_ms={
        "/v1/sign": histogram(3.5, 12.0, 260.0), "/metrics": histogram(0.7)})
    for name, state in gateway.tenants.states().items():
        scale = 1 if name == "alpha" else 2
        filled(state.stats, admitted=40 * scale, completed=35 * scale,
               rejected_quota=6 * scale, rejected_inflight=scale,
               shed=3 * scale, failed=2 * scale, inflight=scale)
    for counters in (PAIRING_COUNTERS, MSM_COUNTERS, HASH_COUNTERS,
                     DKG_COUNTERS):
        for position, key in enumerate(counters):
            monkeypatch.setitem(counters, key, 100 * (position + 1)
                                + len(key))
    return render_prometheus(gateway.metric_families())


def test_metrics_exposition_matches_golden_digest(monkeypatch, toy_group):
    text = golden_exposition(monkeypatch, toy_group)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        GOLDEN_SHA256, text


STATS_RECORDS = (GatewayStats, TenantStats, ServiceStats, ShardStats,
                 WorkerPoolStats, EpochStats)


#: Single-bit flips of the exposition parsed per sweep, a seeded sample
#: of its ~92 000 bits (each parse reads the whole text).
_FLIPS = 1024


def _parses(text: str) -> bool:
    """True if ``parse_prometheus`` accepts ``text``, False if it
    refuses it with ``ValueError``; any other exception propagates."""
    try:
        parse_prometheus(text)
    except ValueError:
        return False
    return True


def test_parser_refuses_mutants_with_value_error(monkeypatch, toy_group,
                                                 session_seed):
    """In the style of ``tests/test_fuzz_wire.py``: every truncation of
    the golden exposition and a seeded sample of its single-bit flips
    either parse or raise ``ValueError`` — never another exception."""
    text = golden_exposition(monkeypatch, toy_group)
    assert text.isascii() and _parses(text)
    parsed = [cut for cut in range(len(text)) if _parses(text[:cut])]
    # Only a cut after a whole line can parse (the trailing newline),
    # and the cut after each whole family does.
    assert all(text[cut - 1] == "\n" for cut in parsed)
    assert len(parsed) >= len(parse_prometheus(text)) - 1
    rng = random.Random(0x3E7 if session_seed is None else session_seed)
    blob = text.encode("ascii")
    for bit in rng.sample(range(len(blob) * 8), _FLIPS):
        mutated = bytearray(blob)
        mutated[bit // 8] ^= 1 << (bit % 8)
        _parses(mutated.decode("latin-1"))


def test_every_stats_field_is_declared():
    """No hidden counters: each field of a stats record is exported
    (or walked into a nested record), so ``/metrics`` shows all of it."""
    for record_type in STATS_RECORDS:
        assert set(declarations(record_type)) == {
            field.name for field in dataclasses.fields(record_type)}, \
            record_type.__name__


def declared_families() -> dict:
    """``{family name: type}`` over every declaration that can reach
    ``/metrics``."""
    families = {CRYPTO_OPS.name: CRYPTO_OPS.kind}
    for record_type in STATS_RECORDS:
        for spec in declarations(record_type).values():
            if isinstance(spec, Metric):
                families.setdefault(spec.name, spec.kind)
    return families


def test_every_family_is_documented():
    """docs/HTTP_API.md tabulates each family (name, type, labels,
    HELP) in one row, and names no family that is not declared."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "docs"
            / "HTTP_API.md").read_text()
    rows = dict(re.findall(r"^\| `(ljy_\w+)` \| (\w+) \|", text, re.M))
    assert rows == declared_families()
