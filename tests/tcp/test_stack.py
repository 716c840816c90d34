"""TCP connection machinery over real simulated paths."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import connect
from repro.netsim.netem import LossImpairment
from repro.netsim.units import mbps, millis, seconds
from repro.tcp.stack import INFINITE_DATA, TcpHostStack, TcpState

MSS = 1448


def make_path(sim, rate=mbps(50), delay_ns=millis(5), loss=None, qbytes=10**6):
    a = Host(sim, "client", "10.0.0.1")
    b = Host(sim, "server", "10.0.0.2")
    link = connect(sim, a, b, rate, delay_ns,
                   queue_bytes_a=qbytes, queue_bytes_b=qbytes)
    if loss is not None:
        link.impairments.append(loss)
    return TcpHostStack(sim, a, default_mss=MSS), TcpHostStack(sim, b, default_mss=MSS)


def open_pair(sim, cstack, sstack, **kw):
    accepted = []
    sstack.listen(5201, on_accept=accepted.append,
                  rcv_buf_bytes=kw.pop("rcv_buf", 4 * 1024 * 1024))
    conn = cstack.open_connection(sstack.host.ip, 5201, **kw)
    return conn, accepted


def test_handshake_establishes_both_sides(sim):
    cstack, sstack = make_path(sim)
    conn, accepted = open_pair(sim, cstack, sstack)
    conn.connect()
    sim.run_until(seconds(1))
    assert conn.state is TcpState.ESTABLISHED
    assert accepted and accepted[0].state is TcpState.ESTABLISHED


def test_handshake_rtt_timing(sim):
    cstack, sstack = make_path(sim, delay_ns=millis(10))
    conn, _ = open_pair(sim, cstack, sstack)
    established = []
    conn.on_established.append(lambda c: established.append(sim.now))
    conn.connect()
    sim.run_until(seconds(1))
    # SYN + SYN-ACK = one RTT (plus negligible serialisation).
    assert established[0] == pytest.approx(millis(20), rel=0.05)


def test_volume_transfer_completes_exactly(sim):
    cstack, sstack = make_path(sim)
    conn, accepted = open_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: (c.write(200_000), c.close()))
    conn.connect()
    sim.run_until(seconds(5))
    assert conn.state is TcpState.DONE
    assert accepted[0].bytes_received == 200_000
    assert conn.stats.bytes_acked == 200_000


def test_sub_mss_tail_is_sent(sim):
    cstack, sstack = make_path(sim)
    conn, accepted = open_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: (c.write(MSS + 7), c.close()))
    conn.connect()
    sim.run_until(seconds(2))
    assert accepted[0].bytes_received == MSS + 7


def test_throughput_approaches_line_rate(sim):
    cstack, sstack = make_path(sim, rate=mbps(20))
    conn, accepted = open_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: c.write(INFINITE_DATA))
    conn.connect()
    sim.after(seconds(6), conn.close)
    sim.run_until(seconds(8))
    thr = conn.stats.avg_throughput_bps()
    assert thr > 0.8 * mbps(20)


def test_retransmission_under_loss_still_delivers(sim):
    loss = LossImpairment(0.02, seed=5, data_only=True)
    cstack, sstack = make_path(sim, loss=loss)
    conn, accepted = open_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: (c.write(400_000), c.close()))
    conn.connect()
    sim.run_until(seconds(30))
    assert accepted[0].bytes_received == 400_000
    assert conn.stats.retransmissions > 0
    assert conn.state is TcpState.DONE


def test_heavy_loss_requires_rto_but_completes(sim):
    loss = LossImpairment(0.15, seed=9, data_only=True)
    cstack, sstack = make_path(sim, loss=loss)
    conn, accepted = open_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: (c.write(80_000), c.close()))
    conn.connect()
    sim.run_until(seconds(60))
    assert accepted[0].bytes_received == 80_000


def test_receiver_window_caps_throughput(sim):
    rtt_ns = millis(20)
    rcv_buf = 20_000  # -> ~8 Mbps at 20 ms RTT
    cstack, sstack = make_path(sim, rate=mbps(100), delay_ns=rtt_ns // 2)
    conn, accepted = open_pair(sim, cstack, sstack, rcv_buf=rcv_buf)
    conn.on_established.append(lambda c: c.write(INFINITE_DATA))
    conn.connect()
    sim.after(seconds(5), conn.close)
    sim.run_until(seconds(7))
    expected = rcv_buf * 8 / (rtt_ns / 1e9)
    thr = conn.stats.avg_throughput_bps()
    assert thr < 1.3 * expected
    assert thr > 0.5 * expected
    assert conn.stats.retransmissions == 0


def test_pacing_caps_rate(sim):
    cstack, sstack = make_path(sim, rate=mbps(100))
    conn, accepted = open_pair(sim, cstack, sstack, pacing_bps=mbps(5))
    conn.on_established.append(lambda c: c.write(INFINITE_DATA))
    conn.connect()
    sim.after(seconds(5), conn.close)
    sim.run_until(seconds(7))
    thr = conn.stats.avg_throughput_bps()
    assert thr == pytest.approx(mbps(5), rel=0.15)


def test_rtt_estimates_match_path(sim):
    cstack, sstack = make_path(sim, delay_ns=millis(15))
    conn, _ = open_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: (c.write(500_000), c.close()))
    conn.connect()
    sim.run_until(seconds(10))
    assert conn.stats.rtt_samples
    min_rtt = min(r for _, r in conn.stats.rtt_samples)
    assert min_rtt >= millis(30)
    assert min_rtt < millis(45)


def test_fin_teardown_records_end_time(sim):
    cstack, sstack = make_path(sim)
    conn, accepted = open_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: (c.write(10_000), c.close()))
    conn.connect()
    sim.run_until(seconds(3))
    assert conn.state is TcpState.DONE
    assert accepted[0].state is TcpState.DONE
    assert conn.stats.end_ns > conn.stats.established_ns > 0
    # Both stacks forgot the connection.
    assert not cstack._conns
    assert not sstack._conns


def test_syn_retransmission_on_lost_syn(sim):
    # Drop the first 1 packet deterministically: use 100% loss then heal.
    cstack, sstack = make_path(sim)
    link = cstack.host.ports[0].link
    loss = LossImpairment(1.0)
    link.impairments.append(loss)
    conn, _ = open_pair(sim, cstack, sstack)
    conn.connect()
    sim.after(millis(500), link.impairments.clear)
    sim.run_until(seconds(5))
    assert conn.state is TcpState.ESTABLISHED
    assert conn.stats.rto_events >= 1


def test_sack_disabled_still_recovers(sim):
    loss = LossImpairment(0.03, seed=2, data_only=True)
    cstack, sstack = make_path(sim, loss=loss)
    conn, accepted = open_pair(sim, cstack, sstack, sack_enabled=False)
    conn.on_established.append(lambda c: (c.write(300_000), c.close()))
    conn.connect()
    sim.run_until(seconds(60))
    assert accepted[0].bytes_received == 300_000


def test_sack_beats_newreno_on_retransmissions(sim):
    """With burst losses, SACK recovery retransmits less than NewReno."""
    results = {}
    for sack in (True, False):
        s = Simulator()
        loss = LossImpairment(0.05, seed=31, data_only=True)
        cstack, sstack = make_path(s, loss=loss)
        conn, accepted = open_pair(s, cstack, sstack, sack_enabled=sack)
        conn.on_established.append(lambda c: (c.write(400_000), c.close()))
        conn.connect()
        s.run_until(seconds(120))
        assert accepted[0].bytes_received == 400_000
        results[sack] = conn.stats.retransmissions
    assert results[True] <= results[False]


def test_stats_bytes_sent_excludes_retransmissions(sim):
    loss = LossImpairment(0.05, seed=17, data_only=True)
    cstack, sstack = make_path(sim, loss=loss)
    conn, accepted = open_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: (c.write(200_000), c.close()))
    conn.connect()
    sim.run_until(seconds(60))
    assert conn.stats.bytes_sent == 200_000  # first transmissions only


def test_write_after_close_rejected(sim):
    cstack, sstack = make_path(sim)
    conn, _ = open_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: (c.write(1000), c.close()))
    conn.connect()
    sim.run_until(seconds(1))
    with pytest.raises(RuntimeError):
        conn.write(10)


def test_negative_write_rejected(sim):
    cstack, sstack = make_path(sim)
    conn, _ = open_pair(sim, cstack, sstack)
    with pytest.raises(ValueError):
        conn.write(-1)


def test_double_listen_rejected(sim):
    cstack, sstack = make_path(sim)
    sstack.listen(5201)
    with pytest.raises(ValueError):
        sstack.listen(5201)


def test_ephemeral_ports_unique(sim):
    cstack, sstack = make_path(sim)
    sstack.listen(5201)
    conns = [cstack.open_connection(sstack.host.ip, 5201) for _ in range(10)]
    ports = {c.local_port for c in conns}
    assert len(ports) == 10


def test_two_parallel_connections_share_path(sim):
    cstack, sstack = make_path(sim, rate=mbps(20))
    sstack.listen(5201)
    sstack.listen(5202)
    c1 = cstack.open_connection(sstack.host.ip, 5201)
    c2 = cstack.open_connection(sstack.host.ip, 5202)
    for c in (c1, c2):
        c.on_established.append(lambda conn: conn.write(INFINITE_DATA))
        c.connect()
    sim.after(seconds(8), c1.close)
    sim.after(seconds(8), c2.close)
    sim.run_until(seconds(10))
    total = c1.stats.bytes_acked + c2.stats.bytes_acked
    assert total * 8 / 8 > 0.75 * mbps(20)  # jointly near line rate
    for c in (c1, c2):
        assert c.stats.bytes_acked > 0


def test_non_tcp_packets_ignored(sim):
    cstack, sstack = make_path(sim)
    from repro.netsim.packet import Packet
    pkt = Packet(src_ip=cstack.host.ip, dst_ip=sstack.host.ip,
                 src_port=1, dst_port=2, proto=17, payload_len=10)
    cstack.host.send(pkt)
    sim.run()  # should not raise


@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=1 << 40))
@settings(max_examples=100)
def test_property_ack_unwrap_consistency(wire_ack, una):
    """_unwrap_ack maps wire acks to the nearest unbounded value."""
    sim = Simulator()
    cstack, sstack = make_path(sim)
    conn, _ = open_pair(sim, cstack, sstack)
    conn.snd_una = una
    unwrapped = conn._unwrap_ack(wire_ack)
    assert (unwrapped - wire_ack) % (1 << 32) == 0
    assert abs(unwrapped - una) <= 1 << 31
