"""Digest helpers and constant-time comparison.

SHA-256 itself comes from the standard library's ``hashlib`` (a vetted C
implementation); everything layered on top of it in this package is ours.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac


def sha256(data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as lowercase hex."""
    return hashlib.sha256(data).hexdigest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Return HMAC-SHA256 of ``data`` under ``key``."""
    return _hmac.digest(key, data, "sha256")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking a timing early-exit.

    Used for MAC and fingerprint comparisons in the session handshake.
    """
    return _hmac.compare_digest(a, b)


def fingerprint(data: bytes, length: int = 16) -> str:
    """Short human-auditable fingerprint, hex-encoded ``length`` bytes."""
    if not 1 <= length <= 32:
        raise ValueError(f"fingerprint length must be in [1, 32], got {length}")
    return hashlib.sha256(data).hexdigest()[: 2 * length]
