"""The SOS wire protocol.

All routing-layer and message-layer traffic between two connected peers is
carried in :class:`SosPacket` frames with a deterministic binary encoding
(the "common format for both layers to interpret" that the paper assigns
to the message manager, §III-C).

Packet kinds
------------
``CERT``
    Certificate exchange right after session establishment; the payload is
    the sender's certificate (public material, sent in the clear inside
    the MPC session).
``REQUEST``
    Ask the peer for specific message numbers of one author.
``DATA``
    One message: author id, number, creation time, body, the *author's*
    signature over the canonical message bytes, the author's certificate
    (so provenance verifies offline even when forwarded, paper Fig. 3b),
    and the hop count of the sending copy.
``CONTROL``
    Routing-protocol-private payload (e.g. PRoPHET predictability vectors)
    tagged with the protocol name.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List

from repro.storage.messagestore import StoredMessage


class PacketKind(Enum):
    CERT = 1
    REQUEST = 2
    DATA = 3
    CONTROL = 4


class WireError(ValueError):
    """Malformed frame."""


def _pack_bytes(value: bytes) -> bytes:
    return len(value).to_bytes(4, "big") + value


def _pack_str(value: str) -> bytes:
    return _pack_bytes(value.encode("utf-8"))


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise WireError("truncated frame")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_bytes(self) -> bytes:
        return self.take(int.from_bytes(self.take(4), "big"))

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid UTF-8 in frame: {exc}") from exc

    def read_u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def read_f64(self) -> float:
        return struct.unpack(">d", self.take(8))[0]

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)


@dataclass(frozen=True)
class SosPacket:
    """A decoded protocol frame."""

    kind: PacketKind
    sender: str
    fields: Dict[str, object] = field(default_factory=dict)

    # -- constructors -----------------------------------------------------------
    @classmethod
    def cert(cls, sender: str, certificate: bytes, forwarded: bool = False) -> "SosPacket":
        return cls(kind=PacketKind.CERT, sender=sender,
                   fields={"certificate": certificate, "forwarded": forwarded})

    @classmethod
    def request(cls, sender: str, author_id: str, numbers: List[int]) -> "SosPacket":
        return cls(kind=PacketKind.REQUEST, sender=sender,
                   fields={"author_id": author_id, "numbers": list(numbers)})

    @classmethod
    def data(cls, sender: str, message: StoredMessage) -> "SosPacket":
        return cls(kind=PacketKind.DATA, sender=sender, fields={"message": message})

    @classmethod
    def control(cls, sender: str, protocol: str, payload: bytes) -> "SosPacket":
        return cls(kind=PacketKind.CONTROL, sender=sender,
                   fields={"protocol": protocol, "payload": payload})

    # -- encoding --------------------------------------------------------------
    def encode(self) -> bytes:
        head = bytes([self.kind.value]) + _pack_str(self.sender)
        if self.kind is PacketKind.CERT:
            body = _pack_bytes(self.fields["certificate"]) + (
                b"\x01" if self.fields.get("forwarded") else b"\x00"
            )
        elif self.kind is PacketKind.REQUEST:
            numbers = self.fields["numbers"]
            body = _pack_str(self.fields["author_id"]) + len(numbers).to_bytes(4, "big")
            body += b"".join(n.to_bytes(4, "big") for n in numbers)
        elif self.kind is PacketKind.DATA:
            message: StoredMessage = self.fields["message"]
            body = (
                _pack_str(message.author_id)
                + message.number.to_bytes(4, "big")
                + struct.pack(">d", message.created_at)
                + _pack_bytes(message.body)
                + _pack_bytes(message.signature)
                + _pack_bytes(message.author_cert)
                + message.hops.to_bytes(2, "big")
            )
        elif self.kind is PacketKind.CONTROL:
            body = _pack_str(self.fields["protocol"]) + _pack_bytes(self.fields["payload"])
        else:  # pragma: no cover - enum is closed
            raise WireError(f"unknown kind {self.kind!r}")
        return head + body

    @classmethod
    def decode(cls, data: bytes) -> "SosPacket":
        if not data:
            raise WireError("empty frame")
        try:
            kind = PacketKind(data[0])
        except ValueError:
            raise WireError(f"unknown packet kind {data[0]}") from None
        reader = _Reader(data[1:])
        sender = reader.read_str()
        if kind is PacketKind.CERT:
            certificate = reader.read_bytes()
            forwarded = reader.take(1) == b"\x01"
            return cls.cert(sender, certificate, forwarded)
        if kind is PacketKind.REQUEST:
            author_id = reader.read_str()
            count = reader.read_u32()
            if count > 1_000_000:
                raise WireError(f"absurd request count {count}")
            numbers = [reader.read_u32() for _ in range(count)]
            return cls.request(sender, author_id, numbers)
        if kind is PacketKind.DATA:
            author_id = reader.read_str()
            number = reader.read_u32()
            created_at = reader.read_f64()
            body = reader.read_bytes()
            signature = reader.read_bytes()
            author_cert = reader.read_bytes()
            hops = int.from_bytes(reader.take(2), "big")
            message = StoredMessage(
                author_id=author_id,
                number=number,
                created_at=created_at,
                body=body,
                signature=signature,
                author_cert=author_cert,
                hops=hops,
            )
            return cls.data(sender, message)
        protocol = reader.read_str()
        payload = reader.read_bytes()
        return cls.control(sender, protocol, payload)


def canonical_message_bytes(author_id: str, number: int, created_at: float, body: bytes) -> bytes:
    """The byte string an author signs — identical on every device, so any
    node can verify provenance of a forwarded message (paper §IV: "verify
    the originating source of the information being forwarded")."""
    return (
        b"SOSM\x01"
        + _pack_str(author_id)
        + number.to_bytes(4, "big")
        + struct.pack(">d", created_at)
        + _pack_bytes(body)
    )
