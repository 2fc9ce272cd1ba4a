"""The one-time infrastructure requirement (paper Fig. 2a).

The full flow, executed exactly once per user, while Internet is
available:

1. the device generates an RSA key pair,
2. it builds a self-signed CSR claiming the account's unique
   user-identifier (proof of key possession),
3. the cloud cross-checks the claimed identifier against the logged-in
   account and relays to the CA,
4. the CA issues the user certificate,
5. the device installs private key + user certificate + CA root
   certificate in its keystore.

"After the one-time infrastructure requirement, Internet connectivity is
no longer needed for privacy, security, and message dissemination."
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from repro.alleyoop.cloud import CloudService
from repro.crypto.drbg import RandomSource
from repro.crypto.rsa import RsaKeyPair, generate_keypair
from repro.pki.certificate import Certificate, DistinguishedName
from repro.pki.csr import CertificateSigningRequest
from repro.pki.keystore import KeyStore


@dataclass(frozen=True)
class SignupResult:
    """Everything a device leaves sign-up with.

    ``certificate`` is ``None`` under *lazy* provisioning
    (:mod:`repro.pki.provisioning`): the placeholder keystore issues it on
    first use; read ``keystore.own_certificate`` to force it.
    """

    username: str
    user_id: str
    keystore: KeyStore
    certificate: Optional[Certificate]


def sign_up(
    cloud: CloudService,
    username: str,
    rng: Optional[RandomSource],
    now: float,
    key_bits: int = 1024,
    keypair: Optional[RsaKeyPair] = None,
) -> SignupResult:
    """Run the Fig. 2a flow end to end.  Raises
    :class:`~repro.alleyoop.cloud.CloudError` if the cloud is offline —
    sign-up is the one step that genuinely needs the Internet.

    ``keypair`` injects a pre-generated key pair (the keypair-pool path of
    :mod:`repro.pki.provisioning`, which passes no ``rng``); by default a
    fresh one is generated from ``rng``, which is the paper's on-device
    keygen.  Raises ``ValueError`` when given neither."""
    if keypair is None and rng is None:
        raise ValueError("sign-up needs a key pair or a DRBG to generate one from")
    account = cloud.create_account(username, now=now)
    keypair = keypair or generate_keypair(key_bits, rng=rng)
    csr = CertificateSigningRequest.create(
        subject=DistinguishedName(common_name=username),
        private_key=keypair.private,
        user_id=account.user_id,
    )
    certificate = cloud.request_certificate(username, csr, now=now)
    keystore = KeyStore()
    keystore.provision(
        private_key=keypair.private,
        certificate=certificate,
        root=cloud.root_certificate,
    )
    keystore.sync_revocations(cloud.ca.revocations)
    return SignupResult(
        username=username,
        user_id=account.user_id,
        keystore=keystore,
        certificate=certificate,
    )
