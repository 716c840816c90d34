"""Discrete-event network simulator substrate.

The simulator is the stand-in for the paper's physical testbed (Fig. 8):
DTN hosts, legacy store-and-forward switches with tail-drop FIFO output
queues, fibre links, passive optical TAPs, and netem-style impairment
shims.  Time is an integer number of nanoseconds, matching the nanosecond
granularity the paper attributes to the Tofino data plane.
"""

from repro.netsim.engine import Simulator, Event
from repro.netsim.packet import Packet, FiveTuple, TCPFlags, ip_to_int, int_to_ip
from repro.netsim.link import Link, Port
from repro.netsim.host import Host, Node
from repro.netsim.switch import LegacySwitch
from repro.netsim.tap import OpticalTap, MirrorCopy, TapDirection
from repro.netsim.netem import LossImpairment, DelayImpairment, FlapImpairment
from repro.netsim.observer import (
    EventStream,
    NetEvent,
    NetEventKind,
    observe_topology,
)
from repro.netsim.trace import PacketTrace, TraceRecord
from repro.netsim.pcap import PcapCapture, read_pcap, write_pcap
from repro.netsim.topology import (
    ScienceDMZTopology,
    TopologyConfig,
    build_science_dmz,
)
from repro.netsim import units

__all__ = [
    "Simulator",
    "Event",
    "Packet",
    "FiveTuple",
    "TCPFlags",
    "ip_to_int",
    "int_to_ip",
    "Link",
    "Port",
    "Host",
    "Node",
    "LegacySwitch",
    "OpticalTap",
    "MirrorCopy",
    "TapDirection",
    "LossImpairment",
    "DelayImpairment",
    "FlapImpairment",
    "EventStream",
    "NetEvent",
    "NetEventKind",
    "observe_topology",
    "PacketTrace",
    "TraceRecord",
    "PcapCapture",
    "read_pcap",
    "write_pcap",
    "ScienceDMZTopology",
    "TopologyConfig",
    "build_science_dmz",
    "units",
]
