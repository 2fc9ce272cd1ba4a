"""Shared fixtures for the test suite.

Key-generation is the slowest primitive, so a module-scoped pool of
deterministic key pairs and a pre-provisioned PKI are shared by every test
that does not specifically exercise key generation.
"""

from __future__ import annotations

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaKeyPair, generate_keypair
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import DistinguishedName
from repro.pki.csr import CertificateSigningRequest
from repro.pki.keystore import KeyStore


@pytest.fixture(scope="session")
def keypair_pool():
    """Twelve deterministic 1024-bit key pairs, generated once."""
    return [generate_keypair(1024, rng=HmacDrbg.from_int(7000 + i)) for i in range(12)]


@pytest.fixture(scope="session")
def ca():
    """A session-wide certificate authority."""
    return CertificateAuthority(rng=HmacDrbg.from_int(424242), now=0.0)


def make_keystore(ca: CertificateAuthority, keypair: RsaKeyPair, user_id: str, now: float = 0.0) -> KeyStore:
    """Provision a keystore through the full CSR flow."""
    csr = CertificateSigningRequest.create(
        DistinguishedName(common_name=user_id), keypair.private, user_id
    )
    cert = ca.issue(csr, now=now, expected_user_id=user_id)
    store = KeyStore()
    store.provision(private_key=keypair.private, certificate=cert, root=ca.root_certificate)
    return store


@pytest.fixture()
def provisioned_keystores(ca, keypair_pool):
    """Factory: keystores for user ids 'u000000000'...'u000000009'."""

    def _factory(count: int = 2):
        return {
            f"u{i:09d}": make_keystore(ca, keypair_pool[i], f"u{i:09d}")
            for i in range(count)
        }

    return _factory
