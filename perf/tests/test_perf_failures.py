"""Wrong outputs must be counted as ``failed``, not timed as successes."""

import asyncio
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "src"))

from repro.service import SignResult, VerifyResult  # noqa: E402

from perf.workloads import (  # noqa: E402
    WORKLOADS, Bench, Op, failures, message_for,
)


def _drive(bench, limit):
    async def scenario():
        await bench.start()
        try:
            region = await bench.drive(0, 60.0, limit=limit)
            return region, bench.localized()
        finally:
            await bench.stop()
    return asyncio.run(scenario())


def test_forged_verify_inputs_must_come_back_invalid():
    bench = Bench(WORKLOADS["verify_burst"], seed=3, backend="toy")
    bench.build_pool(64)
    region, localized = _drive(bench, limit=64)
    forged = [op for op in region.ops if not bench.pool[op.ordinal][2]]
    assert len(region.ops) == 64 and len(forged) == 4 == localized
    assert all(not op.result.valid for op in forged)
    assert failures(bench, region.ops, localized) == 0
    # A service that accepted one forged pair, or refused a valid one:
    accepted = forged[0]._replace(result=VerifyResult(
        message=forged[0].result.message, valid=True, shard_id=0,
        batch_size=16, latency_ms=1.0))
    tampered = [accepted if op is forged[0] else op for op in region.ops]
    assert failures(bench, tampered, localized) == 1
    assert failures(bench, region.ops, localized - 1) == 1
    # A request that raised is a failure too.
    raised = region.ops[:-1] + [region.ops[-1]._replace(
        result=None, error="ServiceOverloadedError: full")]
    assert failures(bench, raised, localized) == 1


def test_a_wrong_signature_is_counted_as_failed():
    bench = Bench(WORKLOADS["sign_faulty"], seed=5, backend="toy")
    region, localized = _drive(bench, limit=32)
    assert len(region.ops) == 32 and localized == 4
    assert [op.ordinal for op in region.ops if op.result.fallback] == \
        sorted(op.ordinal for op in region.ops if op.ordinal % 8 == 0)
    assert failures(bench, region.ops, localized) == 0
    victim = next(op for op in region.ops if op.ordinal == 3)
    other = next(op for op in region.ops if op.ordinal == 4)
    wrong = victim._replace(result=SignResult(
        message=message_for(5, 3), signature=other.result.signature,
        shard_id=0, batch_size=16, fallback=False, latency_ms=1.0))
    tampered = [wrong if op is victim else op for op in region.ops]
    assert failures(bench, tampered, localized) == 1
    # A forgery the service did not localize is a failure as well.
    assert failures(bench, region.ops, localized - 1) == 1
