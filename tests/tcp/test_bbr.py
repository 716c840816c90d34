"""BBR-style congestion control."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import connect
from repro.netsim.units import mbps, millis, seconds
from repro.tcp.apps import start_transfer
from repro.tcp.bbr import BbrLite
from repro.tcp.cc import make_cc
from repro.tcp.stack import TcpHostStack

MSS = 1448


def test_registered_in_factory():
    assert isinstance(make_cc("bbr", MSS), BbrLite)


def test_factory_makes_bbr_in_a_fresh_interpreter():
    """The factory knows its built-in names without anyone importing
    ``repro.tcp.bbr`` first for its side effects."""
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [sys.executable, "-c", "from repro.tcp.cc import make_cc; "
         "print(type(make_cc('bbr', 1448)).__name__)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "BbrLite"


def test_startup_then_drain_then_probe():
    cc = BbrLite(MSS)
    now = 0
    rtt = millis(20)
    assert cc.state == "startup"
    # Feed acks with a plateauing bandwidth estimate: same delivery rate.
    for i in range(40):
        now += millis(2)
        cc.on_ack(MSS, rtt, now, flight_bytes=20 * MSS)
    assert cc.state in ("drain", "probe_bw")
    # Drain exits once flight <= BDP.
    cc.on_ack(MSS, rtt, now + millis(2), flight_bytes=0)
    assert cc.state == "probe_bw"


def test_probe_bw_cycles_gain():
    cc = BbrLite(MSS)
    cc._state = "probe_bw"
    cc._btlbw_bps = mbps(10)
    cc._rtprop_ns = millis(20)
    seen = set()
    now = 0
    for _ in range(40):
        now += millis(25)
        cc.on_ack(MSS, millis(20), now, flight_bytes=10 * MSS)
        seen.add(cc._pacing_gain())
    assert 1.25 in seen and 0.75 in seen and 1.0 in seen


def test_cwnd_tracks_bdp():
    cc = BbrLite(MSS)
    cc._state = "probe_bw"
    cc._btlbw_bps = mbps(80)
    cc._rtprop_ns = millis(25)
    cc.on_ack(MSS, millis(25), seconds(1), flight_bytes=10 * MSS)
    bdp = mbps(80) * millis(25) / (8 * 1e9)
    assert cc.cwnd == pytest.approx(2.0 * bdp, rel=0.3)


def test_loss_is_not_a_primary_signal():
    cc = BbrLite(MSS)
    cc.cwnd = 50 * MSS
    cc.on_loss_event(50 * MSS, seconds(1))
    assert cc.cwnd == 50 * MSS  # unchanged (only floored)


def test_rto_floors_cwnd():
    cc = BbrLite(MSS)
    cc.cwnd = 50 * MSS
    cc.on_rto(50 * MSS, seconds(1))
    assert cc.cwnd == 4 * MSS


def test_pacing_rate_none_until_model_learns():
    cc = BbrLite(MSS)
    assert cc.pacing_rate_bps() is None
    cc._btlbw_bps = mbps(10)
    # Still in STARTUP: gain 2.885.
    assert cc.pacing_rate_bps() == pytest.approx(2.885 * mbps(10), rel=0.01)


def test_bbr_saturates_link_with_low_queue(sim):
    """End-to-end: BBR fills the pipe with (near) zero loss and a small
    standing queue — unlike CUBIC, which fills the buffer."""
    results = {}
    for cc in ("bbr", "cubic"):
        s = Simulator()
        a = Host(s, "a", "10.0.0.1")
        b = Host(s, "b", "10.0.0.2")
        connect(s, a, b, mbps(30), millis(20), queue_bytes_a=300_000)
        cstack = TcpHostStack(s, a, default_mss=MSS)
        sstack = TcpHostStack(s, b, default_mss=MSS)
        client, server = start_transfer(s, cstack, sstack, b.ip,
                                        duration_s=8.0, cc=cc)
        s.run_until(seconds(10))
        st = client.stats
        rtts = [r for _, r in st.rtt_samples if _ > seconds(4)]
        results[cc] = {
            "thr": st.avg_throughput_bps(),
            "retx": st.retransmissions,
            "rtt": (sum(rtts) / len(rtts)) if rtts else 0,
        }
    assert results["bbr"]["thr"] > 0.8 * mbps(30)
    assert results["bbr"]["retx"] <= results["cubic"]["retx"]
    if results["bbr"]["rtt"] and results["cubic"]["rtt"]:
        assert results["bbr"]["rtt"] <= results["cubic"]["rtt"] * 1.1
