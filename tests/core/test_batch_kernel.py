"""BatchKernel internals (the columnar hot path's own contracts).

The end-to-end semantics are pinned by the batched-vs-scalar
equivalence harness (tests/validation/test_batch_equivalence.py); the
tests here cover the kernel's numeric building blocks directly, where
a bit-level divergence would otherwise surface only as an opaque
digest mismatch.
"""

from __future__ import annotations

import zlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchKernel, crc32_rows
from repro.core.config import MonitorConfig
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, make_ack_packet, make_data_packet
from repro.netsim.tap import MirrorCopy, TapDirection


def _parity(mat: np.ndarray) -> None:
    got = crc32_rows(mat)
    assert got.dtype == np.uint32
    expected = [zlib.crc32(bytes(row)) & 0xFFFFFFFF for row in mat]
    assert got.tolist() == expected


def test_crc32_rows_matches_zlib_on_signature_widths():
    """The kernel hashes 8-byte stash signatures and 20-byte queue-pair
    layouts; both widths must be bit-identical to zlib.crc32 per row."""
    rng = np.random.default_rng(0)
    for width in (8, 20):
        _parity(rng.integers(0, 256, size=(64, width), dtype=np.uint8))


def test_crc32_rows_edge_rows():
    _parity(np.zeros((3, 8), dtype=np.uint8))
    _parity(np.full((3, 8), 0xFF, dtype=np.uint8))
    # single row, and an empty batch
    _parity(np.arange(20, dtype=np.uint8).reshape(1, 20))
    assert crc32_rows(np.empty((0, 8), dtype=np.uint8)).shape == (0,)


@settings(deadline=None, max_examples=50)
@given(rows=st.lists(st.binary(min_size=8, max_size=8),
                     min_size=1, max_size=32))
def test_crc32_rows_matches_zlib_property(rows):
    mat = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), 8)
    _parity(mat)


# -- flow churn: the memo is bounded and a flush preloads only its own batch --


def _churn_copies(flows: int, per_flow: int = 3):
    """Per flow: data segments crossing the switch (ingress + egress
    copy) and the receiver's ACK, interleaved across flows."""
    copies = []
    t = 1_000
    for f in range(flows):
        ft = FiveTuple(0x0A000001 + f, 0x0A010001, 40000 + (f % 20000), 5201)
        seq = 1
        for k in range(per_flow):
            pkt = make_data_packet(ft, seq=seq, payload_len=600, ip_id=k + 1)
            copies.append(MirrorCopy(pkt, TapDirection.INGRESS, t))
            copies.append(MirrorCopy(pkt, TapDirection.EGRESS, t + 2_000, 0))
            seq += 600
            ack = make_ack_packet(ft.reversed(), ack=seq)
            copies.append(MirrorCopy(ack, TapDirection.INGRESS, t + 50_000))
            t += 100_000
    return copies


def _churn_monitor(batched: bool) -> P4Monitor:
    config = MonitorConfig(flow_slots=16, eack_table_size=256,
                           queue_stash_size=256, cms_width=64,
                           long_flow_bytes=1000, batched_path=batched)
    return P4Monitor(config, sim=Simulator())


def test_flow_memo_is_bounded_and_churn_stays_equivalent():
    """300 short flows through 16 slots: the memo is dropped whenever it
    outgrows 4x the register file, and state, stage counters and every
    register's op tally still equal the scalar twin's."""
    batched, scalar = _churn_monitor(True), _churn_monitor(False)
    kernel = batched.kernel
    assert kernel is not None and scalar.kernel is None
    cap = 4 * batched.config.flow_slots
    copies = _churn_copies(300)
    per_flush = 90  # 10 flows (20 memo keys) per flush
    for i in range(0, len(copies), per_flush):
        for copy in copies[i:i + per_flush]:
            batched.receive_copy(copy)
            scalar.receive_copy(copy)
        batched.flush()
        assert len(kernel._flow_memo) <= cap + 20
    assert batched.program.state_digest() == scalar.program.state_digest()
    assert batched.flow_table.slot_collisions == scalar.flow_table.slot_collisions > 0
    assert ({n: r.ops for n, r in batched.program.registers.items()}
            == {n: r.ops for n, r in scalar.program.registers.items()})
    assert batched.pipeline.packets_in == scalar.pipeline.packets_in == len(copies)


def test_buffer_cap_is_the_kernels_constant():
    """One constant, owned by the kernel, bounds the buffer on the
    monitor's batched sink (the TAP's fast mirror path reads the same
    one at bind time)."""
    monitor = _churn_monitor(True)
    cap = BatchKernel.BUFFER_CAP
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=1, payload_len=100)
    for i in range(cap - 1):
        monitor.receive_copy(MirrorCopy(pkt, TapDirection.INGRESS, i + 1))
    assert len(monitor.batch_buffer) == cap - 1
    monitor.receive_copy(MirrorCopy(pkt, TapDirection.INGRESS, cap))
    assert len(monitor.batch_buffer) == 0
    assert monitor.pipeline.packets_in == cap
