"""X.509-style certificates.

Full ASN.1/DER X.509 is out of scope (and irrelevant to the protocol the
paper evaluates); what matters is the *shape* of an X.509 certificate:
subject and issuer distinguished names, a validity window, the subject's
public key, a unique user-identifier extension (the 10-byte AlleyOop user
id), a serial number, and an issuer signature over the canonical encoding
of everything above.  This module implements exactly that with a
deterministic, length-prefixed binary encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.crypto.hashes import sha256
from repro.crypto.rsa import RsaPublicKey


class CertificateError(ValueError):
    """Raised for malformed or inconsistent certificate material."""


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CertificateError("string field too long")
    return len(raw).to_bytes(2, "big") + raw


def _pack_bytes(b: bytes) -> bytes:
    if len(b) > 0xFFFFFFFF:
        raise CertificateError("byte field too long")
    return len(b).to_bytes(4, "big") + b


class _Reader:
    """Sequential reader over a length-prefixed encoding."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read_str(self) -> str:
        n = int.from_bytes(self._take(2), "big")
        try:
            return self._take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CertificateError(f"invalid UTF-8 in encoding: {exc}") from exc

    def read_bytes(self) -> bytes:
        n = int.from_bytes(self._take(4), "big")
        return self._take(n)

    def read_f64(self) -> float:
        import struct

        return struct.unpack(">d", self._take(8))[0]

    def read_u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CertificateError("truncated certificate encoding")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)


@dataclass(frozen=True)
class DistinguishedName:
    """A minimal distinguished name (common name + organisation)."""

    common_name: str
    organization: str = "AlleyOop Social"

    def encode(self) -> bytes:
        return _pack_str(self.common_name) + _pack_str(self.organization)

    @classmethod
    def decode(cls, reader: "_Reader") -> "DistinguishedName":
        return cls(common_name=reader.read_str(), organization=reader.read_str())

    def __str__(self) -> str:
        return f"CN={self.common_name},O={self.organization}"


@dataclass(frozen=True)
class Certificate:
    """An issued certificate.

    ``user_id`` carries the paper's 10-byte unique user-identifier string
    (§V-A); it is the value advertised in plain-text discovery dictionaries
    and the key that message provenance is verified against.
    """

    subject: DistinguishedName
    issuer: DistinguishedName
    public_key: RsaPublicKey
    serial: int
    not_before: float
    not_after: float
    user_id: str
    is_ca: bool = False
    extensions: Dict[str, str] = field(default_factory=dict)
    signature: bytes = b""

    # -- encoding -----------------------------------------------------------
    def tbs_bytes(self) -> bytes:
        """The to-be-signed canonical encoding (everything but the
        signature)."""
        import struct

        parts = [
            b"SOSC\x01",  # format magic + version
            self.subject.encode(),
            self.issuer.encode(),
            _pack_bytes(self.public_key.to_bytes()),
            self.serial.to_bytes(8, "big"),
            struct.pack(">d", self.not_before),
            struct.pack(">d", self.not_after),
            _pack_str(self.user_id),
            b"\x01" if self.is_ca else b"\x00",
            len(self.extensions).to_bytes(4, "big"),
        ]
        for key in sorted(self.extensions):
            parts.append(_pack_str(key))
            parts.append(_pack_str(self.extensions[key]))
        return b"".join(parts)

    def encode(self) -> bytes:
        """Full wire encoding including signature."""
        return _pack_bytes(self.tbs_bytes()) + _pack_bytes(self.signature)

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        outer = _Reader(data)
        tbs = outer.read_bytes()
        signature = outer.read_bytes()
        reader = _Reader(tbs)
        magic = reader._take(5)
        if magic != b"SOSC\x01":
            raise CertificateError(f"unsupported certificate format {magic!r}")
        subject = DistinguishedName.decode(reader)
        issuer = DistinguishedName.decode(reader)
        try:
            public_key = RsaPublicKey.from_bytes(reader.read_bytes())
        except ValueError as exc:
            raise CertificateError(f"malformed public key: {exc}") from exc
        serial = int.from_bytes(reader._take(8), "big")
        not_before = reader.read_f64()
        not_after = reader.read_f64()
        user_id = reader.read_str()
        is_ca = reader._take(1) == b"\x01"
        ext_count = reader.read_u32()
        extensions = {}
        for _ in range(ext_count):
            key = reader.read_str()
            extensions[key] = reader.read_str()
        return cls(
            subject=subject,
            issuer=issuer,
            public_key=public_key,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            user_id=user_id,
            is_ca=is_ca,
            extensions=extensions,
            signature=signature,
        )

    # -- semantics ------------------------------------------------------------
    def fingerprint(self) -> str:
        """Hex SHA-256 over the full encoding; stable identity for caches."""
        return sha256(self.encode()).hex()

    def verify_signature(self, issuer_key: RsaPublicKey) -> bool:
        """Check the issuer's signature over the TBS encoding."""
        if not self.signature:
            return False
        return issuer_key.verify(self.tbs_bytes(), self.signature)

    def is_self_signed(self) -> bool:
        return self.subject == self.issuer and self.verify_signature(self.public_key)

    def with_signature(self, signature: bytes) -> "Certificate":
        """Return a signed copy (certificates are immutable)."""
        return Certificate(
            subject=self.subject,
            issuer=self.issuer,
            public_key=self.public_key,
            serial=self.serial,
            not_before=self.not_before,
            not_after=self.not_after,
            user_id=self.user_id,
            is_ca=self.is_ca,
            extensions=dict(self.extensions),
            signature=signature,
        )

    def __str__(self) -> str:
        return (
            f"Certificate(serial={self.serial}, subject={self.subject}, "
            f"user_id={self.user_id!r}, ca={self.is_ca})"
        )
