"""Per-device key and certificate storage.

Models the iOS keychain role in SOS: it holds the device's own private key
and certificate, the CA root installed at sign-up, and a cache of peer
certificates learned over D2D connections (including certificates
*forwarded* on behalf of message originators, paper Fig. 3b).

Credentials arrive in one of two ways:

* :meth:`KeyStore.provision` installs fully materialised material — the
  eager Fig. 2a flow (:func:`repro.alleyoop.signup.sign_up`);
* :meth:`KeyStore.provision_deferred` installs the CA root plus a
  *materialiser* callback, and the private key / certificate are only
  computed on first access — the lazy provisioning mode
  (:mod:`repro.pki.provisioning`) that keeps RSA key generation out of
  world construction.

Either way the store reports :attr:`~KeyStore.provisioned` and validates
peer certificates immediately; only operations that *use* the local
private key or certificate trigger materialisation.

Example — provision a keystore from a locally-run CA and validate a peer
(1024-bit simulation keys; real deployments use ≥ 2048)::

    >>> from repro.crypto.drbg import HmacDrbg
    >>> from repro.crypto.rsa import generate_keypair
    >>> from repro.pki.ca import CertificateAuthority
    >>> from repro.pki.certificate import DistinguishedName
    >>> from repro.pki.csr import CertificateSigningRequest
    >>> ca = CertificateAuthority(rng=HmacDrbg.from_int(1), key_bits=512)
    >>> keypair = generate_keypair(512, rng=HmacDrbg.from_int(2))
    >>> csr = CertificateSigningRequest.create(
    ...     subject=DistinguishedName(common_name="alice"),
    ...     private_key=keypair.private, user_id="u000000001")
    >>> cert = ca.issue(csr, now=0.0, expected_user_id="u000000001")
    >>> store = KeyStore()
    >>> store.provision(keypair.private, cert, root=ca.root_certificate)
    >>> store.provisioned
    True
    >>> store.validate_and_cache(cert, now=1.0).ok
    True
    >>> store.known_peers()
    ['u000000001']
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.rsa import RsaPrivateKey
from repro.pki.certificate import Certificate
from repro.pki.revocation import RevocationList
from repro.pki.validation import CertificateValidator, ValidationResult

#: A deferred-credentials callback: computes ``(private key, certificate)``
#: exactly once, on first use (see :meth:`KeyStore.provision_deferred`).
CredentialMaterializer = Callable[[], Tuple[RsaPrivateKey, Certificate]]


class KeyStore:
    """Device-local trust store.

    Attributes
    ----------
    root_certificate:
        The CA root installed at sign-up; anchor for all validation.
    """

    def __init__(self) -> None:
        self._private_key: Optional[RsaPrivateKey] = None
        self._own_certificate: Optional[Certificate] = None
        self.root_certificate: Optional[Certificate] = None
        self._materializer: Optional[CredentialMaterializer] = None
        self._peer_certs: Dict[str, Certificate] = {}
        self._revocations = RevocationList()
        self._validator: Optional[CertificateValidator] = None

    # -- provisioning (the Fig. 2a one-time step) ----------------------------
    def provision(
        self,
        private_key: RsaPrivateKey,
        certificate: Certificate,
        root: Certificate,
    ) -> None:
        """Install the material obtained during sign-up.

        Args:
            private_key: The device's own RSA private key.
            certificate: The CA-issued certificate over the matching
                public key.
            root: The CA root certificate (trust anchor).

        Raises:
            ValueError: If ``certificate`` does not certify
                ``private_key``'s public half.
        """
        if certificate.public_key != private_key.public_key():
            raise ValueError("certificate does not match the private key")
        self._private_key = private_key
        self._own_certificate = certificate
        self._materializer = None
        self.root_certificate = root
        self._validator = CertificateValidator(root=root, revocations=self._revocations)

    def provision_deferred(
        self, materializer: CredentialMaterializer, root: Certificate
    ) -> None:
        """Install the CA root now and defer the own-key material.

        The store becomes :attr:`provisioned` (it can validate peers and
        sync revocations), but ``materializer`` only runs — once — when
        :attr:`private_key` or :attr:`own_certificate` is first read.
        This is the lazy sign-up hook (:mod:`repro.pki.provisioning`):
        a simulated device that never secures a link or posts never pays
        for RSA key generation.

        Args:
            materializer: Zero-argument callable returning the
                ``(private key, certificate)`` pair that sign-up produced.
            root: The CA root certificate (trust anchor).
        """
        self._materializer = materializer
        self._private_key = None
        self._own_certificate = None
        self.root_certificate = root
        self._validator = CertificateValidator(root=root, revocations=self._revocations)

    def _materialize(self) -> None:
        if self._materializer is None:
            return
        # Install first, clear the callback only on success: a failing
        # materialiser must raise again on every later access instead of
        # silently degrading the store to None credentials.
        private_key, certificate = self._materializer()
        if certificate.public_key != private_key.public_key():
            raise ValueError("materialised certificate does not match the private key")
        self._private_key = private_key
        self._own_certificate = certificate
        self._materializer = None

    @property
    def private_key(self) -> Optional[RsaPrivateKey]:
        """The device's own private key (materialised on first access)."""
        if self._private_key is None and self._materializer is not None:
            self._materialize()
        return self._private_key

    @property
    def own_certificate(self) -> Optional[Certificate]:
        """The device's own certificate (materialised on first access)."""
        if self._own_certificate is None and self._materializer is not None:
            self._materialize()
        return self._own_certificate

    @property
    def provisioned(self) -> bool:
        """True once sign-up completed (eagerly or deferred)."""
        return self._validator is not None

    @property
    def materialized(self) -> bool:
        """True once the own-key material actually exists in memory.

        Always true after :meth:`provision`; after
        :meth:`provision_deferred` it flips on the first
        :attr:`private_key` / :attr:`own_certificate` access.  The
        provisioning benchmarks read this to count how many simulated
        devices ever paid for key generation.
        """
        return self._private_key is not None

    def _require_validator(self) -> CertificateValidator:
        if self._validator is None:
            raise RuntimeError("keystore not provisioned; complete sign-up first")
        return self._validator

    # -- peer certificates ----------------------------------------------------
    def validate_and_cache(
        self,
        certificate: Certificate,
        now: float,
        expected_user_id: Optional[str] = None,
    ) -> ValidationResult:
        """Validate a peer (or forwarded-originator) certificate; cache on
        success, keyed by user-identifier.

        Args:
            certificate: The certificate received over the D2D link.
            now: Current simulation time (validity-window check).
            expected_user_id: When given, the user-identifier the peer
                claimed out of band; a mismatch fails validation (paper
                §IV impersonation defence).

        Returns:
            The full :class:`~repro.pki.validation.ValidationResult`;
            ``result.ok`` tells whether the certificate was cached.
        """
        result = self._require_validator().validate(
            certificate, now, expected_user_id=expected_user_id
        )
        if result.ok:
            self._peer_certs[certificate.user_id] = certificate
        return result

    def peer_certificate(self, user_id: str) -> Optional[Certificate]:
        """The cached certificate for ``user_id``, if any."""
        return self._peer_certs.get(user_id)

    def known_peers(self) -> List[str]:
        """Sorted user-identifiers with cached certificates."""
        return sorted(self._peer_certs)

    def forget_peer(self, user_id: str) -> None:
        """Drop ``user_id``'s cached certificate (no-op if absent)."""
        self._peer_certs.pop(user_id, None)

    # -- revocation sync --------------------------------------------------------
    def sync_revocations(self, authority_crl: RevocationList) -> None:
        """Copy the CA's CRL; only possible with infrastructure (paper §IV).

        Cached certificates that are now revoked are evicted immediately.

        Args:
            authority_crl: The CA's current revocation list (snapshotted,
                so later CA-side changes don't leak in).
        """
        self._revocations = authority_crl.snapshot()
        if self._validator is not None:
            self._validator.update_revocations(self._revocations)
        revoked_users = [
            uid
            for uid, cert in self._peer_certs.items()
            if self._revocations.is_revoked(cert.serial)
        ]
        for uid in revoked_users:
            del self._peer_certs[uid]
