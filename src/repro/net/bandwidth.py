"""Transfer-time and message-size accounting.

The medium does not simulate per-packet behaviour; at DTN timescales what
matters is whether a message of size S fits inside a contact of duration D
on a radio of throughput B (plus fixed per-transfer overhead).
"""

from __future__ import annotations

from repro.net.radio import RadioProfile

#: Fixed protocol overhead per application transfer (framing, acks), bytes.
PER_TRANSFER_OVERHEAD_BYTES = 512

#: Latency floor per transfer, seconds (radio turnaround, scheduling).
PER_TRANSFER_LATENCY_S = 0.05


def transfer_duration(size_bytes: int, radio: RadioProfile) -> float:
    """Seconds needed to move ``size_bytes`` over ``radio``."""
    if size_bytes < 0:
        raise ValueError(f"negative transfer size {size_bytes}")
    total_bits = (size_bytes + PER_TRANSFER_OVERHEAD_BYTES) * 8
    return PER_TRANSFER_LATENCY_S + total_bits / radio.throughput_bps
