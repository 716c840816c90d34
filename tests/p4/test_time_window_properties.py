"""Property-based guarantees of the time-window forensics extern.

The three properties culprit attribution leans on
(docs/observability.md "Queue forensics"):

- **window uniqueness**: every recorded packet lands in exactly one
  window per level — window intervals tile time, so a timestamp is
  covered by exactly one decoded window at each level.
- **coarsening consistency**: a level-k window covers exactly two
  level-(k-1) windows, and (absent ring eviction) its packet and byte
  counts equal the sum of its children's.
- **conservation**: across an arbitrary interleaving of observes,
  flips, and extracts, nothing is lost — per level, packets observed ==
  extracted + residue still in the banks + evicted by ring wrap.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.p4.time_windows import (
    F_BYTES, F_PKTS, TimeWindowRegister, decode_windows)

LEVELS = 3
CELLS = 8
BASE_NS = 1_000

# Timestamps inside one level-0 ring revolution never evict: higher
# levels have wider windows, so they wrap even later.
_NO_EVICT_TS = st.integers(0, CELLS * BASE_NS - 1)
_PKT = st.tuples(_NO_EVICT_TS, st.integers(1, 2**32 - 1),
                 st.integers(40, 1500), st.integers(0, 10_000))

# An op is either a departing packet or a control-plane action.  The
# unbounded timestamp range deliberately wraps the tiny ring so the
# conservation property is exercised *with* data-plane evictions.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 50 * CELLS * BASE_NS),
                  st.integers(1, 2**32 - 1),
                  st.integers(40, 1500),
                  st.integers(0, 10_000)),
        st.just("extract"),
        st.just("flip"),
    ),
    min_size=1, max_size=150,
)


@given(st.lists(_PKT, min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_property_each_packet_in_exactly_one_window_per_level(pkts):
    tw = TimeWindowRegister("tw", LEVELS, CELLS, BASE_NS)
    for ts, sig, nbytes, qd in pkts:
        tw.observe(ts, sig, nbytes, qd)
    records = decode_windows(tw.bank(tw.active), BASE_NS)
    by_level = {lvl: [r for r in records if r.level == lvl]
                for lvl in range(LEVELS)}
    for lvl in range(LEVELS):
        rows = by_level[lvl]
        # Per level, the window counts account for every packet once.
        assert sum(r.pkt_count for r in rows) == len(pkts)
        for ts, _, _, _ in pkts:
            covering = [r for r in rows if r.start_ns <= ts < r.end_ns]
            assert len(covering) == 1


@given(st.lists(_PKT, min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_property_parent_counts_equal_sum_of_children(pkts):
    tw = TimeWindowRegister("tw", LEVELS, CELLS, BASE_NS)
    for ts, sig, nbytes, qd in pkts:
        tw.observe(ts, sig, nbytes, qd)
    assert tw.evicted_pkts == [0] * LEVELS  # strategy stays inside the ring
    records = decode_windows(tw.bank(tw.active), BASE_NS)
    by_level_wid = {(r.level, r.window_id): r for r in records}
    for (level, wid), parent in by_level_wid.items():
        if level == 0:
            continue
        children = [by_level_wid.get((level - 1, 2 * wid + i))
                    for i in (0, 1)]
        present = [c for c in children if c is not None]
        assert parent.pkt_count == sum(c.pkt_count for c in present)
        assert parent.byte_count == sum(c.byte_count for c in present)
        assert parent.max_qdepth_ns == max(
            c.max_qdepth_ns for c in present)
        # The parent signs the same flow as whichever child holds the
        # latest write only when one child exists; with two children the
        # last writer of the parent is the last writer overall, which is
        # one of the children's signatures.
        assert parent.flow_sig in {c.flow_sig for c in present}


@given(_OPS)
@settings(max_examples=80, deadline=None)
def test_property_conservation_across_flip_schedules(ops):
    """observed == extracted + residue + evicted, per level, pkts+bytes."""
    tw = TimeWindowRegister("tw", LEVELS, CELLS, BASE_NS)
    extracted_pkts = [0] * LEVELS
    extracted_bytes = [0] * LEVELS
    observed_pkts = 0
    observed_bytes = 0
    for op in ops:
        if op == "extract":
            bank = tw.extract()
            for rec in decode_windows(bank, BASE_NS):
                extracted_pkts[rec.level] += rec.pkt_count
                extracted_bytes[rec.level] += rec.byte_count
        elif op == "flip":
            tw.flip()  # a bare flip must never lose the quiescent bank
        else:
            ts, sig, nbytes, qd = op
            tw.observe(ts, sig, nbytes, qd)
            observed_pkts += 1
            observed_bytes += nbytes
    residue = tw.bank(0) + tw.bank(1)  # still held in either bank
    for level in range(LEVELS):
        assert (extracted_pkts[level] + int(residue[level, :, F_PKTS].sum())
                + tw.evicted_pkts[level]) == observed_pkts
        assert (extracted_bytes[level] + int(residue[level, :, F_BYTES].sum())
                + tw.evicted_bytes[level]) == observed_bytes
    assert tw.ops == observed_pkts
