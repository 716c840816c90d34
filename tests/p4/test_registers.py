"""Stateful registers: width, wrap, control-plane reads."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.p4.registers import SPARSE_CELLS, RegisterArray


def test_initial_state_is_zero():
    reg = RegisterArray("r", 16)
    assert all(reg.read(i) == 0 for i in range(16))


def test_write_read_roundtrip():
    reg = RegisterArray("r", 8, width_bits=32)
    reg.write(3, 123456)
    assert reg.read(3) == 123456


def test_width_truncation():
    reg = RegisterArray("r", 4, width_bits=8)
    reg.write(0, 0x1FF)
    assert reg.read(0) == 0xFF


def test_add_wraps_at_width():
    reg = RegisterArray("r", 2, width_bits=8)
    reg.write(0, 250)
    assert reg.add(0, 10) == (250 + 10) & 0xFF


def test_maximum_semantics():
    reg = RegisterArray("r", 2)
    reg.maximum(0, 100)
    reg.maximum(0, 50)
    assert reg.read(0) == 100
    reg.maximum(0, 200)
    assert reg.read(0) == 200


def test_snapshot_is_isolated_copy():
    reg = RegisterArray("r", 4)
    reg.write(0, 7)
    snap = reg.snapshot()
    reg.write(0, 99)
    assert snap[0] == 7


def test_read_many():
    reg = RegisterArray("r", 10)
    for i in range(10):
        reg.write(i, i * i)
    got = reg.read_many([1, 3, 5])
    assert list(got) == [1, 9, 25]


def test_clear_single_and_all():
    reg = RegisterArray("r", 4)
    reg.write(1, 5)
    reg.write(2, 6)
    reg.clear(1)
    assert reg.read(1) == 0 and reg.read(2) == 6
    reg.clear()
    assert reg.read(2) == 0


def test_load_bulk():
    reg = RegisterArray("r", 3, width_bits=8)
    reg.load(np.array([300, 1, 2]))
    assert reg.read(0) == 300 & 0xFF
    with pytest.raises(ValueError):
        reg.load(np.zeros(5))


def test_out_of_range_index_raises():
    reg = RegisterArray("r", 4)
    with pytest.raises(IndexError):
        reg.read(100)


def test_invalid_geometry():
    with pytest.raises(ValueError):
        RegisterArray("r", 0)
    with pytest.raises(ValueError):
        RegisterArray("r", 4, width_bits=65)


def test_len():
    assert len(RegisterArray("r", 12)) == 12


@given(st.integers(1, 64), st.integers(0, 2**64 - 1))
def test_property_write_masks_to_width(width_bits, value):
    reg = RegisterArray("r", 1, width_bits=width_bits)
    reg.write(0, value)
    assert reg.read(0) == value & ((1 << width_bits) - 1)


@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=30))
def test_property_add_accumulates_mod_width(values):
    reg = RegisterArray("r", 1, width_bits=32)
    total = 0
    for v in values:
        total = (total + v) & 0xFFFFFFFF
        reg.add(0, v)
    assert reg.read(0) == total


# -- sparse backing store --------------------------------------------------------

#: Four cells of a 2^32-cell array, far apart, and their dense twins.
_FAR = (0, 5, SPARSE_CELLS + 3, 2**32 - 1)


@given(st.integers(1, 64),
       st.lists(st.tuples(st.sampled_from(("write", "add", "maximum", "clear")),
                          st.integers(0, len(_FAR) - 1),
                          st.integers(0, 2**64 - 1)), max_size=40))
def test_a_sparse_register_serves_ops_like_a_dense_one(width_bits, ops):
    """Above ``SPARSE_CELLS`` cells the store keeps only the written cells;
    every data-plane op and ``clear(i)`` answers as the dense store does,
    width masking included."""
    sparse = RegisterArray("s", 2**32, width_bits=width_bits)
    dense = RegisterArray("d", len(_FAR), width_bits=width_bits)
    for op, i, value in ops:
        if op == "clear":
            sparse.clear(_FAR[i])
            dense.clear(i)
        else:
            assert getattr(sparse, op)(_FAR[i], value) == getattr(dense, op)(i, value)
    assert [sparse.read(c) for c in _FAR] == [dense.read(i) for i in range(len(_FAR))]
    assert sparse.ops == dense.ops
    assert len(sparse._cells) <= len(_FAR) and len(sparse) == 2**32

