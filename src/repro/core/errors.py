"""SOS middleware error hierarchy."""

from __future__ import annotations


class SosError(RuntimeError):
    """Base class for SOS middleware errors."""


class SecurityError(SosError):
    """Certificate validation, signature or decryption failure.

    Raised (and logged) by the ad hoc manager; peers failing security
    checks are disconnected rather than served.
    """


class NotSignedUpError(SosError):
    """An operation needing credentials ran before the one-time sign-up."""
