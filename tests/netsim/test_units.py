"""Unit conversion helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim import units


def test_time_conversions():
    assert units.seconds(1.5) == 1_500_000_000
    assert units.millis(2) == 2_000_000
    assert units.micros(3) == 3_000
    assert units.to_seconds(units.seconds(4.25)) == pytest.approx(4.25)


def test_rate_conversions():
    assert units.gbps(10) == 10_000_000_000
    assert units.mbps(100) == 100_000_000


def test_tx_time_basic():
    # 1000 bytes at 1 Gbps -> 8 microseconds.
    assert units.tx_time_ns(1000, units.gbps(1)) == 8_000


def test_tx_time_rounds_up():
    # 1 byte at 3 bps -> ceil(8e9/3) ns.
    assert units.tx_time_ns(1, 3) == -(-8 * units.NS_PER_S // 3)


def test_tx_time_rejects_bad_rate():
    with pytest.raises(ValueError):
        units.tx_time_ns(100, 0)


def test_bdp():
    # Paper's §5.4.1 example: 10 Gbps x 100 ms = 125 MB.
    assert units.bdp_bytes(units.gbps(10), units.millis(100)) == 125_000_000


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**11))
def test_property_tx_time_never_undershoots(nbytes, rate):
    tx = units.tx_time_ns(nbytes, rate)
    # Transmitting for tx ns at `rate` must move at least nbytes*8 bits.
    assert tx * rate >= nbytes * 8 * units.NS_PER_S


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**11))
def test_property_tx_time_tight(nbytes, rate):
    tx = units.tx_time_ns(nbytes, rate)
    # ...but not by more than one ns worth of slack.
    assert (tx - 1) * rate < nbytes * 8 * units.NS_PER_S


@given(st.floats(min_value=0, max_value=10**6, allow_nan=False))
def test_property_seconds_roundtrip(s):
    assert units.to_seconds(units.seconds(s)) == pytest.approx(s, abs=1e-9)
