"""TAP mirror-stream recording and its JSON serialisation.

The fuzzer's failure artifacts optionally embed the exact mirror-copy
stream of the failing run so a defect can be replayed through
:class:`repro.core.replay.OfflineAnalyzer` without re-running the
simulation — and so the replay round-trip test can assert that live and
offline analysis reach bit-identical register state
(:meth:`P4Program.state_digest`).
"""

from __future__ import annotations

from typing import List

from repro.netsim.packet import Packet, TCPFlags
from repro.netsim.tap import MirrorCopy, TapDirection

_PKT_FIELDS = (
    "src_ip", "dst_ip", "proto", "ip_id", "ttl", "src_port", "dst_port",
    "seq", "ack", "window", "payload_len", "tcp_options_len", "ecn",
    "created_ns",
)


class CopyRecorder:
    """A tee sink: records every :class:`MirrorCopy` in delivery order.

    Pass as ``copy_recorder`` to
    :class:`repro.experiments.common.Scenario` (or call directly from any
    mirror sink).  ``copies`` is the replay input as it stands: delivery
    order is preserved, so an offline replay — a stable sort by
    timestamp — processes same-timestamp copies in the live order.
    """

    def __init__(self) -> None:
        self.copies: List[MirrorCopy] = []

    def __call__(self, copy: MirrorCopy) -> None:
        self.copies.append(copy)

    def __len__(self) -> int:
        return len(self.copies)

    def to_jsonable(self) -> List[dict]:
        return [copy_to_jsonable(c) for c in self.copies]


def copy_to_jsonable(copy: MirrorCopy) -> dict:
    doc = {f: getattr(copy.pkt, f) for f in _PKT_FIELDS}
    doc["flags"] = int(copy.pkt.flags)
    doc["ecn"] = copy.ecn
    if copy.pkt.sack:
        doc["sack"] = [list(block) for block in copy.pkt.sack]
    doc["direction"] = copy.direction.value
    doc["ts"] = copy.timestamp_ns
    if copy.egress_port_id:
        doc["egress_port_id"] = copy.egress_port_id
    return doc


def copy_from_jsonable(doc: dict) -> MirrorCopy:
    kwargs = {f: doc[f] for f in _PKT_FIELDS}
    kwargs["flags"] = TCPFlags(doc.get("flags", 0))
    sack = doc.get("sack")
    if sack:
        kwargs["sack"] = [tuple(block) for block in sack]
    pkt = Packet(**kwargs)
    return MirrorCopy(
        pkt,
        TapDirection(doc["direction"]),
        doc["ts"],
        egress_port_id=doc.get("egress_port_id", 0),
    )


def copies_from_jsonable(docs: List[dict]) -> List[MirrorCopy]:
    """Deserialise an artifact's capture back into OfflineAnalyzer records."""
    return [copy_from_jsonable(doc) for doc in docs]
