"""The AlleyOop Social certificate authority.

The CA is the only infrastructure component the system ever requires, and
it is touched exactly once per user, at sign-up (paper Fig. 2a).  It also
implements the paper's impersonation mitigation: the cloud asks the CA to
"compare and validate the unique user-identifier provided in the
certificate with the unique user-identifier affiliated with the logged in
user" — modelled here by the ``expected_user_id`` cross-check argument.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.crypto.drbg import RandomSource, SystemRandomSource
from repro.crypto.rsa import RsaKeyPair, generate_keypair
from repro.pki.certificate import Certificate, CertificateError, DistinguishedName
from repro.pki.csr import CertificateSigningRequest
from repro.pki.revocation import RevocationList

#: Default certificate lifetime: one year, expressed in seconds.
DEFAULT_VALIDITY = 365 * 86400.0


class CertificateAuthority:
    """Issues and revokes user certificates under a self-signed root."""

    def __init__(
        self,
        name: str = "AlleyOop Social Root CA",
        key_bits: int = 1024,
        rng: Optional[RandomSource] = None,
        now: float = 0.0,
        validity: float = DEFAULT_VALIDITY,
        keypair: Optional[RsaKeyPair] = None,
    ) -> None:
        # repro: ignore[rng-unseeded] -- deployment default: every experiment builds the CA with an HmacDrbg; the OS fallback serves real-world use of the library.
        self._rng = rng or SystemRandomSource()
        self._keypair = keypair or generate_keypair(key_bits, rng=self._rng)
        self._serial = 1
        self._reserved: set = set()
        self.validity = float(validity)
        self.revocations = RevocationList()
        self._issued: Dict[int, Certificate] = {}
        self._dn = DistinguishedName(common_name=name, organization="AlleyOop Social CA")
        root = Certificate(
            subject=self._dn,
            issuer=self._dn,
            public_key=self._keypair.public,
            serial=0,
            not_before=now,
            not_after=now + 20 * self.validity,
            user_id="",
            is_ca=True,
        )
        self.root_certificate = root.with_signature(self._keypair.private.sign(root.tbs_bytes()))

    def reserve_serial(self) -> int:
        """Reserve the next serial number for a certificate issued later.

        Lazy provisioning (:mod:`repro.pki.provisioning`) reserves each
        user's serial at sign-up time and materialises the certificate on
        first use; reserving up front keeps the serial stream — and
        therefore the certificate bytes — identical to an eager run that
        issues in sign-up order.
        """
        serial = self._serial
        self._serial += 1
        self._reserved.add(serial)
        return serial

    def issue(
        self,
        csr: CertificateSigningRequest,
        now: float,
        expected_user_id: Optional[str] = None,
        validity: Optional[float] = None,
        serial: Optional[int] = None,
    ) -> Certificate:
        """Issue a certificate for a verified CSR.

        ``expected_user_id`` is the identifier the cloud has on file for
        the logged-in account; a mismatch with the CSR's claim is rejected
        (paper §IV's defence against credential substitution).
        ``serial`` fulfils a prior :meth:`reserve_serial` reservation;
        by default the next free serial is assigned here.
        """
        if not csr.verify():
            raise CertificateError("CSR self-signature invalid (no proof of key possession)")
        if expected_user_id is not None and csr.user_id != expected_user_id:
            raise CertificateError(
                f"user-identifier mismatch: CSR claims {csr.user_id!r}, "
                f"account is {expected_user_id!r}"
            )
        if not csr.user_id:
            raise CertificateError("CSR carries an empty user-identifier")
        if serial is None:
            serial = self._serial
            self._serial += 1
        elif serial in self._reserved:
            self._reserved.discard(serial)
        else:
            raise CertificateError(f"serial {serial} was never reserved (or already used)")
        cert = Certificate(
            subject=csr.subject,
            issuer=self._dn,
            public_key=csr.public_key,
            serial=serial,
            not_before=now,
            not_after=now + (validity if validity is not None else self.validity),
            user_id=csr.user_id,
            is_ca=False,
        )
        signed = cert.with_signature(self._keypair.private.sign(cert.tbs_bytes()))
        self._issued[serial] = signed
        return signed

    def revoke(self, serial: int, now: float, reason: str = "unspecified") -> None:
        """Revoke an issued certificate (requires infrastructure, §IV)."""
        if serial not in self._issued:
            raise CertificateError(f"serial {serial} was not issued by this CA")
        self.revocations.revoke(serial, now, reason)

    def get_issued(self, serial: int) -> Optional[Certificate]:
        return self._issued.get(serial)
