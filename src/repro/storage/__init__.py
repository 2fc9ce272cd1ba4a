"""Device-local storage substrate.

AlleyOop Social saves every user action to "the local database on the
mobile device" and synchronises "with the cloud when the Internet becomes
available" (paper §V).  This package supplies that local database:

* :mod:`repro.storage.actionlog` — an append-only, sequence-numbered log
  of user actions (post / follow / unfollow),
* :mod:`repro.storage.messagestore` — the per-author message store whose
  high-water marks become the plain-text advertisement dictionary,
* :mod:`repro.storage.syncqueue` — the at-least-once cloud sync queue.
"""

from repro.storage.actionlog import Action, ActionKind, ActionLog
from repro.storage.messagestore import MessageStore, StoredMessage
from repro.storage.syncqueue import SyncQueue

__all__ = [
    "Action",
    "ActionKind",
    "ActionLog",
    "MessageStore",
    "StoredMessage",
    "SyncQueue",
]
