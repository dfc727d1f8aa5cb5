"""Golden digests: the exact bytes of one encoding of every record kind.

The round-trip and fuzz suites prove the codec agrees with itself; this
file proves it agrees with every blob already written.  Each record is
built from a fixed dealer seed and fixed field values, encoded, and its
SHA-256 compared against the digest recorded here, on the toy backend
and on BN254.  A change to any byte layout — a field reordered, a
width changed, a flag byte renumbered — fails here even when the new
layout round-trips, because a WAL or a context written by the old
layout would no longer read back.
"""

import hashlib
import random

import pytest

from repro.core.scheme import ServiceHandle
from repro.serialization import (
    FRAME_KIND_JOB, PartialSignJob, PartialSignOutcome, SignWindowJob,
    SignWindowOutcome, VerifyWindowJob, VerifyWindowOutcome,
    WalAdmitRecord, WalDoneRecord, WireCodec, encode_frame, encode_hello,
    encode_service_context, hello_mac, service_context_digest,
)

DEALER_SEED = 0x601D


def golden_blobs(group):
    """``{name: bytes}`` — one encoding of every record kind."""
    handle = ServiceHandle.dealer(group, 2, 5,
                                  rng=random.Random(DEALER_SEED))
    codec = WireCodec(group)
    message = b"golden message"
    partials = handle.partials_for(message)
    signature = handle.sign(message)
    quorum = tuple(handle.quorum())
    context = encode_service_context(handle)
    digest = service_context_digest(context)
    sign_job = codec.encode_job(SignWindowJob(
        shard_id=3, messages=(b"", b"a", message), quorum=quorum, epoch=2))
    return {
        "partial": codec.encode_partial(partials[0]),
        "signature": codec.encode_signature(signature),
        "verification_key": codec.encode_verification_key(
            handle.verification_keys[2]),
        "share": codec.encode_share(handle.shares[4]),
        "job_S": sign_job,
        "job_V": codec.encode_job(VerifyWindowJob(
            shard_id=1, messages=(message, b"x"),
            signatures=(signature, signature), epoch=5)),
        "job_P": codec.encode_job(PartialSignJob(
            shard_id=7, message=message, signers=quorum, epoch=1)),
        "outcome_s": codec.encode_outcome(SignWindowOutcome(
            signatures=(signature, None, signature), flagged=(1, 2),
            failures=((1, "no quorum: bad shares"),),
            fallback_combines=2)),
        "outcome_v": codec.encode_outcome(VerifyWindowOutcome(
            verdicts=(True, False, True))),
        "outcome_p": codec.encode_outcome(PartialSignOutcome(
            partials=tuple(partials))),
        "wal_W": codec.encode_wal_record(WalAdmitRecord(
            request_id=(1 << 40) + 9, message=message, epoch=3)),
        "wal_w_signature": codec.encode_wal_record(WalDoneRecord(
            request_id=11, signature=signature)),
        "wal_w_reason": codec.encode_wal_record(WalDoneRecord(
            request_id=12, reason="expired")),
        "context_C": context,
        "hello": encode_hello(group.name, digest),
        "hello_mac": encode_hello(group.name, digest,
                                  hello_mac(b"golden psk", digest)),
        "frame_J": encode_frame(FRAME_KIND_JOB, sign_job,
                                request_id=0x0102030405060708),
    }


GOLDEN = {
    "toy": {
        "partial":
            "a9ef3575399fc189006b047c528e32a0c13789fd9bac4cbf8d4a74c8b80b1b7c",
        "signature":
            "53528f871c7a9643d50615cd3dae68ce91390bf1cc0f6376adffcb4f15daa6b4",
        "verification_key":
            "3ced78c06d7f67852adc7234100a39429551a5f24b7fc6b86f9fadd9ed3f5707",
        "share":
            "38f3f660ae37299f08d13e8bdb70f8f29014afe4885a960d0185cde9676bbf44",
        "job_S":
            "3c847dcda28530ccf232e817c5c3eebd830a8c458ee7094350e6b3593b20415a",
        "job_V":
            "896e1d7d850865cc0d76ad3524ef0dd6a1280b4de721d5ddfd6f4b31cf0b3f5d",
        "job_P":
            "b875ead090eb0e552711bbb8332a4e11ce8316567534722ec3281c7d2e842864",
        "outcome_s":
            "ce5ef0a1988e235569237373c8c485b3430c284832a2fd7b73c3f8b3d358ceb3",
        "outcome_v":
            "5db64c50241427eb42506952502537c261e130faf9b4034f8072319d6eff5de7",
        "outcome_p":
            "f1e31174279abd7a14570b5c6896b559d386802c5b68573790009bb1ae3f71eb",
        "wal_W":
            "5b98c198f70b07b722d9abefb946e038d3138df12138ee8e9a0317cd5ddb7bf1",
        "wal_w_signature":
            "bacd6304f6cbbd9014ee16c68fa0852d3e486c9420c3f947aaa06512a6542328",
        "wal_w_reason":
            "ae082927b1d0f2ce3c1dbc761cf9a71103c61e711bc88e662991b078efeba423",
        "context_C":
            "164f9985a0a79cdb8e1a96e2610c0d15f8c44e9f38e463d5ef9fcd8fab0eb73e",
        "hello":
            "d99a50bc00c13e0bb73c15da8a27828ab351e6db39432f4b46bca641ed2b95ee",
        "hello_mac":
            "206aa560388eca67b797d111c064600bb4c073eb3b881ae7b38b6eb95c047da9",
        "frame_J":
            "79efa5542d2bf893a1623205033389043dbed0bde1f94d3cca0b1a833082225a",
    },
    "bn254": {
        "partial":
            "69d09bf7f3d059c63b35703fc5184eb4466f26c2dbb1ae5ed326fb29a2018dbb",
        "signature":
            "53238f9a8322d10cd106c7f5fe8a37db1a667f5285c1232beac6022fb308ae48",
        "verification_key":
            "3abda16e858ce139704a54babb351a4538e5d041dc274ecb7199a20bd4bb1f18",
        "share":
            "38f3f660ae37299f08d13e8bdb70f8f29014afe4885a960d0185cde9676bbf44",
        "job_S":
            "3c847dcda28530ccf232e817c5c3eebd830a8c458ee7094350e6b3593b20415a",
        "job_V":
            "39397927bd8f049e7153adcbb3a02325c82d5906720b3e6a94c24a3cb12fa9e5",
        "job_P":
            "b875ead090eb0e552711bbb8332a4e11ce8316567534722ec3281c7d2e842864",
        "outcome_s":
            "a0d9838e6679232cab0051d25ce51a4c792ce39a682d1a247fa5bc3679adacdf",
        "outcome_v":
            "5db64c50241427eb42506952502537c261e130faf9b4034f8072319d6eff5de7",
        "outcome_p":
            "818262c9724b371020b5a05a7a1ec004e23fcd651f153350ca2b533dafa44433",
        "wal_W":
            "5b98c198f70b07b722d9abefb946e038d3138df12138ee8e9a0317cd5ddb7bf1",
        "wal_w_signature":
            "d4aae459568a68bb00f9f6ec2e7754f7a14d85cab280840efe11ddfc46926c6b",
        "wal_w_reason":
            "ae082927b1d0f2ce3c1dbc761cf9a71103c61e711bc88e662991b078efeba423",
        "context_C":
            "584089a445ea03a00e1850a09858d5b9e7c3d80972b744494a2ced15cdd23ed3",
        "hello":
            "d341da79fe3410c674cfadbade428617b1ff49059c057425837bf67e77b3df3c",
        "hello_mac":
            "7df964a8baf1fe93d19fba9ab1e9e5aec94337a6ecf7f2df7699c5fa07c6c6c4",
        "frame_J":
            "79efa5542d2bf893a1623205033389043dbed0bde1f94d3cca0b1a833082225a",
    },
}


def _assert_golden(group):
    digests = {name: hashlib.sha256(blob).hexdigest()
               for name, blob in golden_blobs(group).items()}
    assert digests == GOLDEN[group.name]


def test_golden_digests_toy(toy_group):
    _assert_golden(toy_group)


@pytest.mark.bn254
def test_golden_digests_bn254(bn254_group):
    _assert_golden(bn254_group)
