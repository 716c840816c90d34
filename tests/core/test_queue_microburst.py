"""Queue-delay pairing (§4.2) and data-plane microburst detection (§3.3.3)."""

from repro.netsim.units import micros, millis

from tests.core.helpers import FlowScript, small_monitor

# small_monitor: buffer 125 kB @ 100 Mb/s -> max queue delay 10 ms;
# microburst thresholds: on = 5 ms, off = 2.5 ms.


def qdelay_of(mon, script):
    mask = mon.config.flow_slots - 1
    return mon.queue.flow_qdelay.read(script.flow_id & mask)


def test_pair_yields_exact_transit_delay():
    mon = small_monitor()
    script = FlowScript(mon)
    script.transit(1, 500, t_in=millis(1), t_out=millis(1) + micros(750))
    assert qdelay_of(mon, script) == micros(750)
    assert mon.queue.pairs_matched == 1


def test_unpaired_egress_is_a_miss():
    mon = small_monitor()
    script = FlowScript(mon)
    from repro.netsim.packet import make_data_packet
    from repro.netsim.tap import TapDirection
    pkt = make_data_packet(script.ft, seq=1, payload_len=100, ip_id=9)
    mon.process_packet(pkt, TapDirection.EGRESS, millis(2))
    assert mon.queue.pairs_missed == 1


def test_stash_cell_consumed():
    mon = small_monitor()
    script = FlowScript(mon)
    from repro.netsim.tap import TapDirection
    pkt = script.data(1, 100, millis(1))
    mon.process_packet(pkt, TapDirection.EGRESS, millis(2))
    mon.process_packet(pkt, TapDirection.EGRESS, millis(3))  # duplicate egress
    assert mon.queue.pairs_matched == 1
    assert mon.queue.pairs_missed == 1


def test_peak_hold_register():
    mon = small_monitor()
    script = FlowScript(mon)
    script.transit(1, 100, millis(1), millis(1) + micros(200))
    script.transit(101, 100, millis(2), millis(2) + micros(900))
    script.transit(201, 100, millis(3), millis(3) + micros(100))
    mask = mon.config.flow_slots - 1
    idx = script.flow_id & mask
    assert mon.queue.flow_qdelay.read(idx) == micros(100)        # latest
    assert mon.queue.flow_qdelay_max.read(idx) == micros(900)    # peak


def test_distinct_packets_same_flow_do_not_collide():
    mon = small_monitor()
    script = FlowScript(mon)
    from repro.netsim.tap import TapDirection
    # Two packets in the switch simultaneously.
    p1 = script.data(1, 100, millis(1))
    p2 = script.data(101, 100, millis(1) + micros(10))
    mon.process_packet(p1, TapDirection.EGRESS, millis(1) + micros(500))
    mon.process_packet(p2, TapDirection.EGRESS, millis(1) + micros(700))
    assert mon.queue.pairs_matched == 2


# -- microburst detector ---------------------------------------------------


def burst_digests(mon):
    got = []
    mon.runtime().subscribe_digest("microburst", lambda n, p: got.append(p))
    return got


def test_burst_detected_with_ns_start_and_duration():
    mon = small_monitor()
    got = burst_digests(mon)
    script = FlowScript(mon)
    t = millis(10)
    # Rising excursion: cross the 5 ms on-threshold, then fall below 2.5 ms.
    script.transit(1, 100, t, t + millis(6))              # 6 ms > on
    script.transit(101, 100, t + millis(1), t + millis(8))  # 7 ms peak
    script.transit(201, 100, t + millis(9), t + millis(10))  # 1 ms -> ends
    assert len(got) == 1
    d = got[0]
    start = t + millis(6) - millis(6)  # egress time minus delay
    assert d["start_ns"] == start
    assert d["peak_queue_delay_ns"] == millis(7)
    assert d["duration_ns"] == (t + millis(10)) - start
    assert d["packets"] == 3
    assert mon.microburst.bursts_detected == 1


def test_no_burst_below_threshold():
    mon = small_monitor()
    got = burst_digests(mon)
    script = FlowScript(mon)
    for i in range(10):
        t = millis(10 + i)
        script.transit(1 + 100 * i, 100, t, t + millis(2))  # 2 ms < 5 ms
    assert got == []


def test_hysteresis_no_retrigger_between_thresholds():
    """Delay oscillating between off and on thresholds stays one burst."""
    mon = small_monitor()
    got = burst_digests(mon)
    script = FlowScript(mon)
    t = millis(10)
    script.transit(1, 100, t, t + millis(6))       # start
    script.transit(101, 100, t + millis(2), t + millis(6))   # 4 ms: between
    script.transit(201, 100, t + millis(3), t + millis(9))   # 6 ms again
    script.transit(301, 100, t + millis(9), t + millis(10))  # 1 ms: end
    assert len(got) == 1
    assert got[0]["packets"] == 4


def test_two_separate_bursts():
    mon = small_monitor()
    got = burst_digests(mon)
    script = FlowScript(mon)
    for k in range(2):
        t = millis(10 + 100 * k)
        script.transit(1 + 1000 * k, 100, t, t + millis(6))
        script.transit(101 + 1000 * k, 100, t + millis(7), t + millis(8))
    assert len(got) == 2


def test_hysteresis_constants_are_ordered():
    from repro.core.microburst import OFF_FRACTION, ON_FRACTION
    assert 0 < OFF_FRACTION < ON_FRACTION <= 1


def test_per_port_bursts_are_independent():
    """Two tapped queues with interleaved excursions must not confuse
    each other's hysteresis state (the multi-queue generalisation)."""
    from repro.netsim.packet import make_data_packet
    from repro.netsim.tap import TapDirection

    mon = small_monitor()
    got = []
    mon.runtime().subscribe_digest("microburst", lambda n, p: got.append(p))
    script = FlowScript(mon)

    def transit(seq, t_in, t_out, port):
        pkt = script.data(seq, 100, t_in)
        mon.process_packet(pkt, TapDirection.EGRESS, t_out, egress_port_id=port)

    t = millis(10)
    # Port 0 enters a burst...
    transit(1, t, t + millis(6), 0)
    # ...port 1 stays calm (would have ended a naive global burst).
    transit(101, t + millis(1), t + millis(2), 1)
    transit(201, t + millis(2), t + millis(3), 1)
    # Port 0's burst continues and ends.
    transit(301, t + millis(3), t + millis(10), 0)
    transit(401, t + millis(10), t + millis(11), 0)
    assert len(got) == 1
    assert got[0]["port_id"] == 0
    assert got[0]["packets"] == 3  # only port-0 packets counted


def test_concurrent_bursts_on_two_ports():
    from repro.netsim.tap import TapDirection

    mon = small_monitor()
    got = []
    mon.runtime().subscribe_digest("microburst", lambda n, p: got.append(p))
    script = FlowScript(mon)

    def transit(seq, t_in, t_out, port):
        pkt = script.data(seq, 100, t_in)
        mon.process_packet(pkt, TapDirection.EGRESS, t_out, egress_port_id=port)

    t = millis(50)
    transit(1, t, t + millis(6), 0)          # burst starts on port 0
    transit(101, t + millis(1), t + millis(7), 1)   # and on port 1
    transit(201, t + millis(8), t + millis(9), 1)   # port 1 ends first
    transit(301, t + millis(10), t + millis(11), 0)  # then port 0
    assert len(got) == 2
    assert {d["port_id"] for d in got} == {0, 1}
