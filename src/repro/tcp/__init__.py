"""Packet-level TCP implementation and traffic applications.

This is the DTN-endpoint substrate: NewReno-style loss recovery with
pluggable congestion avoidance (Reno, CUBIC), RFC 6298 RTO estimation,
receiver flow control (advertised window), and application-level pacing.
Together these produce the phenomena the paper measures — fair-share
convergence, join bursts, buffer bloat, loss-recovery sawtooths, and
endpoint-limited plateaus (Figs. 9-12).
"""

from repro import _lazy_exports

_EXPORTS = {
    "TcpHostStack": ".stack",
    "TcpConnection": ".stack",
    "ConnectionStats": ".stack",
    "CongestionControl": ".cc",
    "Reno": ".cc",
    "Cubic": ".cc",
    "make_cc": ".cc",
    "BbrLite": ".bbr",
    "Iperf3Client": ".apps",
    "Iperf3Server": ".apps",
    "start_transfer": ".apps",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
