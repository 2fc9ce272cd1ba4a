"""E7 / §IV — cost of the security pipeline.

The paper specifies the security operations (one-time sign-up with key
generation + CSR + certificate, per-message signing, end-to-end
encryption, forwarded-certificate validation) but not their cost; this
bench measures each stage so the overhead of "secure" in SOS is
quantified, plus a batched micro-table for the full pipeline.
"""

import pytest

from repro.alleyoop.cloud import CloudService
from repro.alleyoop.signup import sign_up
from repro.crypto.chacha import _keystream_chunk
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import _pkcs1_v15_verify, generate_keypair, hybrid_decrypt, hybrid_encrypt
from repro.pki.validation import CertificateValidator

PAYLOAD = b"x" * 1024


def _cold_caches():
    """Each round pays what one device pays for an input it has not seen:
    the keystream and verify caches are shared by the simulated devices
    of one process, which a real device's checks are not."""
    _keystream_chunk.cache_clear()
    _pkcs1_v15_verify.cache_clear()


@pytest.fixture(scope="module")
def crypto_env():
    rng = HmacDrbg.from_int(31337)
    cloud = CloudService(rng=rng, now=0.0, key_bits=1024)
    alice = sign_up(cloud, "alice", rng=HmacDrbg.from_int(1), now=0.0)
    bob = sign_up(cloud, "bob", rng=HmacDrbg.from_int(2), now=0.0)
    return cloud, alice, bob


def test_bench_signup_flow(benchmark):
    """The one-time infrastructure requirement, end to end (Fig. 2a)."""
    cloud = CloudService(rng=HmacDrbg.from_int(99), now=0.0, key_bits=1024)
    counter = iter(range(10_000))

    def run_signup():
        return sign_up(
            cloud, f"user{next(counter)}", rng=HmacDrbg.from_int(next(counter)), now=0.0
        )

    result = benchmark.pedantic(run_signup, rounds=3, iterations=1)
    assert result.keystore.provisioned


def test_bench_keygen_1024(benchmark):
    counter = iter(range(10_000))
    benchmark.pedantic(
        lambda: generate_keypair(1024, rng=HmacDrbg.from_int(next(counter))),
        rounds=3,
        iterations=1,
    )


def test_bench_sign(benchmark, crypto_env):
    _, alice, _ = crypto_env
    private = alice.keystore.private_key
    signature = benchmark(private.sign, PAYLOAD)
    assert alice.certificate.public_key.verify(PAYLOAD, signature)


def test_bench_verify(benchmark, crypto_env):
    _, alice, _ = crypto_env
    signature = alice.keystore.private_key.sign(PAYLOAD)
    verify = alice.certificate.public_key.verify
    assert benchmark.pedantic(verify, (PAYLOAD, signature), setup=_cold_caches, rounds=200)


def test_bench_hybrid_encrypt(benchmark, crypto_env):
    _, _, bob = crypto_env
    rng = HmacDrbg.from_int(5)
    envelope = benchmark(hybrid_encrypt, bob.certificate.public_key, PAYLOAD, rng)
    assert hybrid_decrypt(bob.keystore.private_key, envelope) == PAYLOAD


def test_bench_hybrid_decrypt(benchmark, crypto_env):
    _, _, bob = crypto_env
    envelope = hybrid_encrypt(bob.certificate.public_key, PAYLOAD, rng=HmacDrbg.from_int(6))
    args = (bob.keystore.private_key, envelope)
    assert benchmark.pedantic(hybrid_decrypt, args, setup=_cold_caches, rounds=50) == PAYLOAD


def test_bench_certificate_validation(benchmark, crypto_env):
    """Forwarded-certificate validation (Fig. 3b): what every receiving
    device pays per unknown originator."""
    cloud, alice, _ = crypto_env
    validator = CertificateValidator(root=cloud.root_certificate)
    args = (alice.certificate, 1.0)
    result = benchmark.pedantic(validator.validate, args, setup=_cold_caches, rounds=200)
    assert result.ok
