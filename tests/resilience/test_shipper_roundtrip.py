"""Property test (Hypothesis): a ResilientShipper checkpointed at any
point and restored into a fresh incarnation must resume *exactly* where
the original would have — identical redelivery order, identical dead
letters, identical eviction counts, identical backoff RNG stream.  The
blocks shipped hold one to four rows each."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reports import Block, document_run
from repro.netsim.engine import Simulator
from repro.resilience.delivery import DeliveryConfig, ResilientShipper
from repro.resilience.faults import ArchiveUnavailable


class ScriptedTransport:
    """Delivers or refuses on command, recording what got through."""

    def __init__(self, ok: bool = False) -> None:
        self.ok = ok
        self.delivered = []

    def __call__(self, block) -> None:
        if not self.ok:
            raise ArchiveUnavailable("scripted outage")
        # The shipper delivers a whole block; its rows share an envelope.
        envelopes = {(doc["_shipper"], doc["_seq"]) for doc in block.documents()}
        assert len(envelopes) == 1
        self.delivered.append((envelopes.pop(), len(block)))


def _block(payloads):
    return Block([document_run({"type": "sample", "value": p}) for p in payloads])


def _envelopes(blocks):
    """Each block's ``(source, seq)`` envelope, read off every document."""
    out = []
    for block in blocks:
        keys = {(doc["_shipper"], doc["_seq"]) for doc in block.documents()}
        assert len(keys) == 1
        out.append(keys.pop())
    return out


def _drain_fully(shipper, limit: int = 64) -> None:
    for _ in range(limit):
        shipper.redeliver_dead_letters()
        shipper.kick()
        if shipper.pending == 0 and not shipper.dead_letters:
            return


ships = st.lists(st.tuples(st.lists(st.integers(0, 999), min_size=1, max_size=4),
                          st.booleans()), max_size=40)


@settings(max_examples=60, deadline=None)
@given(ships=ships, spool_limit=st.integers(1, 6),
       dead_letter_limit=st.integers(1, 6))
def test_checkpoint_round_trip_resumes_identically(ships, spool_limit,
                                                   dead_letter_limit):
    config = DeliveryConfig(spool_limit=spool_limit,
                            dead_letter_limit=dead_letter_limit)

    # Drive the original through a mixed up/down transport history.
    transport_a = ScriptedTransport()
    a = ResilientShipper(Simulator(), transport_a, config=config,
                         source="p4-controlplane", seed=3)
    for payloads, ok in ships:
        transport_a.ok = ok
        a(_block(payloads))
    a.close()

    # Checkpoint over the wire (the state must survive JSON, exactly as
    # it does embedded in a repro-checkpoint-v1 document).
    state = json.loads(json.dumps(a.checkpoint_state()))
    delivered_before_checkpoint = len(transport_a.delivered)

    # The successor: fresh sim, fresh source (crash-recovery contract).
    transport_b = ScriptedTransport()
    b = ResilientShipper(Simulator(), transport_b, config=config,
                         source="p4-controlplane:r1", seed=99)
    b.restore_state(state)

    assert b.source == "p4-controlplane:r1", "source is never restored"
    assert b.seq == a.seq, "seq continues (keys stay globally unique)"
    assert b.pending == a.pending
    assert _envelopes(b.dead_letters) == _envelopes(a.dead_letters)
    assert b.dead_letters == a.dead_letters
    assert b.dead_letter_evictions == a.dead_letter_evictions
    assert b.acked_keys == a.acked_keys
    # The backoff RNG state is carried faithfully through JSON (the
    # restore then draws its own jitter when re-arming the retry timer).
    from repro.resilience.delivery import _rng_from_jsonable
    assert _rng_from_jsonable(state["rng_state"]) == a._rng.getstate()

    # Both worlds come back up: the successor must redeliver the same
    # documents in the same order the original would have.
    transport_a.ok = True
    transport_b.ok = True
    _drain_fully(a)
    _drain_fully(b)
    assert transport_b.delivered == \
        transport_a.delivered[delivered_before_checkpoint:]
    assert b.pending == a.pending == 0
    assert not b.dead_letters and not a.dead_letters
    assert b.dead_letter_evictions == a.dead_letter_evictions, \
        "no extra losses may appear during redelivery"
    assert b.acked_keys == a.acked_keys


@settings(max_examples=30, deadline=None)
@given(ships=ships)
def test_new_traffic_after_restore_never_collides(ships):
    """Documents shipped by the successor get its fresh source, so their
    (source, seq) keys can never collide with the dead incarnation's."""
    transport = ScriptedTransport()
    a = ResilientShipper(Simulator(), transport, config=DeliveryConfig(),
                         source="p4-controlplane", seed=3)
    for payloads, ok in ships:
        transport.ok = ok
        a(_block(payloads))
    state = json.loads(json.dumps(a.checkpoint_state()))

    transport_b = ScriptedTransport(ok=True)
    b = ResilientShipper(Simulator(), transport_b, config=DeliveryConfig(),
                         source="p4-controlplane:r1", seed=99)
    b.restore_state(state)
    _drain_fully(b)
    inherited = set(transport_b.delivered)
    b(_block([1, 2]))
    new_keys = set(transport_b.delivered) - inherited
    assert new_keys, "the new block must have been delivered"
    assert all(src == "p4-controlplane:r1" for (src, _), _ in new_keys)
    assert not (new_keys & inherited)
