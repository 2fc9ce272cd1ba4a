"""The non-resuming reference channel: every new channel pays RSA.

:class:`NonResumingChannel` is :class:`repro.crypto.session.SecureChannel`
with session resumption switched off: the first key of every channel is
an RSA key transport (a ``K`` frame), as it was before reconnects resumed
from an acknowledged master.  Frames are padded to the same length either
way, so a study must replay byte-identically under both; the tests swap
it in for the ad hoc manager's channel with::

    monkeypatch.setattr("repro.core.adhoc.SecureChannel", NonResumingChannel)

It still acknowledges masters in its data frames, so it interoperates
with resuming peers.
"""

from __future__ import annotations

from repro.crypto.session import SecureChannel


class NonResumingChannel(SecureChannel):
    """A channel that never resumes: each new channel pays RSA."""

    def _resume_send(self, now: float) -> None:
        return None
