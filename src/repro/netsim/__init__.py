"""Discrete-event network simulator substrate.

The simulator is the stand-in for the paper's physical testbed (Fig. 8):
DTN hosts, legacy store-and-forward switches with tail-drop FIFO output
queues, fibre links, passive optical TAPs, and netem-style impairment
shims.  Time is an integer number of nanoseconds, matching the nanosecond
granularity the paper attributes to the Tofino data plane.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Simulator": ".engine",
    "Event": ".engine",
    "Packet": ".packet",
    "FiveTuple": ".packet",
    "TCPFlags": ".packet",
    "ip_to_int": ".packet",
    "int_to_ip": ".packet",
    "Link": ".link",
    "Port": ".link",
    "Host": ".host",
    "Node": ".host",
    "LegacySwitch": ".switch",
    "OpticalTap": ".tap",
    "MirrorCopy": ".tap",
    "TapDirection": ".tap",
    "LossImpairment": ".netem",
    "DelayImpairment": ".netem",
    "FlapImpairment": ".netem",
    "EventStream": ".observer",
    "NetEvent": ".observer",
    "NetEventKind": ".observer",
    "observe_topology": ".observer",
    "PacketTrace": ".trace",
    "TraceRecord": ".trace",
    "PcapCapture": ".pcap",
    "read_pcap": ".pcap",
    "write_pcap": ".pcap",
    "ScienceDMZTopology": ".topology",
    "TopologyConfig": ".topology",
    "build_science_dmz": ".topology",
}

__all__ = list(_EXPORTS) + ["units"]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
