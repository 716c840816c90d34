"""Unit helpers: everything in the simulator is integer nanoseconds, bytes
and bits-per-second.  Centralising the conversions keeps magic numbers out
of the substrate and the experiments.
"""

from __future__ import annotations

# -- time ------------------------------------------------------------------

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def seconds(s: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(s * NS_PER_S)


def millis(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(ms * NS_PER_MS)


def micros(us: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(us * NS_PER_US)


def to_seconds(ns: int) -> float:
    """Convert integer nanoseconds to float seconds."""
    return ns / NS_PER_S


# -- rate ------------------------------------------------------------------


def gbps(x: float) -> int:
    """Gigabits per second -> bits per second."""
    return round(x * 1e9)


def mbps(x: float) -> int:
    """Megabits per second -> bits per second."""
    return round(x * 1e6)


def tx_time_ns(nbytes: int, rate_bps: int) -> int:
    """Serialisation delay of ``nbytes`` on a link of ``rate_bps``.

    Rounds up so that a packet never finishes transmitting early; this
    guarantees a busy port can never emit more than ``rate_bps``.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate_bps must be positive, got {rate_bps}")
    bits = nbytes * 8
    return -(-bits * NS_PER_S // rate_bps)  # ceil division


# -- sizes -----------------------------------------------------------------

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024


def bdp_bytes(rate_bps: int, rtt_ns: int) -> int:
    """Bandwidth-delay product in bytes (paper §5.4.1: buffer = 1 BDP)."""
    return rate_bps * rtt_ns // (8 * NS_PER_S)
