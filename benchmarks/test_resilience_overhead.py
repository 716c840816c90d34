"""Resilience-hook overhead budget.

The fault-injection hooks follow the repo's construction-time-binding
rule: the injector is read once, at construction, and with none
installed ``TcpInputPlugin.ingest`` and ``OpenSearchStore.index`` each
pay one ``is None`` test for it (the store's in both chains below,
which share it), so the remaining disabled cost is that test, the
always-on malformed guard in the input and the sequence-dedup probe in
``OpenSearchOutputPlugin.__call__``.

This benchmark drives the socket hot path — JSON line → ingest →
filter → output → store — against bare twins that replay the
pre-resilience bodies, so the measured delta is exactly the guards, and
holds the ratio within 2 % — the same budget the histogram, forensics
and checkpoint guards are held to.  A timed chaos run rides along.
"""

import json

from repro import telemetry
from repro.perfsonar.logstash import (
    LogstashPipeline,
    OpenSearchOutputPlugin,
    TcpInputPlugin,
    opensearch_metadata_filter,
)
from repro.perfsonar.opensearch import OpenSearchStore
from repro.resilience import faults
from repro.resilience.delivery import SequenceDedup

from benchmarks.harness import assert_within, paired_median, timed

EVENTS = 4000
# The residual guard delta is tens of ns against a ~4 us path; paired
# rounds need enough samples for the median to settle under the noise.
ROUNDS = 16
DISABLED_BUDGET = 1.02


class BareOutput(OpenSearchOutputPlugin):
    """__call__() exactly as it was before the dedup probe."""

    def __call__(self, event):
        kind = event.get(self.index_field, "unknown")
        self.store.index(f"{self.index_prefix}-{kind}", event)
        self.documents_written += 1


class BareInput(TcpInputPlugin):
    """The socket path exactly as it was before the stall/malformed
    guards: parse the line, count it, run the pipeline."""

    def ingest(self, event):
        self.messages += 1
        return self.pipeline.process(event)

    __call__ = ingest

    def ingest_line(self, line):
        return self.ingest(json.loads(line))


def _line_stream(n):
    return [json.dumps({"type": "p4_rtt", "@timestamp": i * 0.001,
                        "flow_id": 7, "value": 12.5}) for i in range(n)]


def _chain(input_cls, output_cls, dedup):
    # Both chains share the same store code.
    store = OpenSearchStore()
    pipe = LogstashPipeline("bench")
    pipe.add_filter(opensearch_metadata_filter)
    out = output_cls(store, dedup=dedup)
    pipe.add_output(out)
    return input_cls(pipe)


def _drive(tcp, stream):
    for line in stream:
        tcp.ingest_line(line)


def _measure_disabled_ratio():
    """No injector installed, telemetry off: the guarded chain vs its
    pre-resilience twin.  The guarded output carries a live
    SequenceDedup (the Archiver default) so the ``_seq`` probe is paid
    on every un-enveloped document — the worst honest case."""
    assert faults.injector() is None and not telemetry.enabled()
    stream = _line_stream(EVENTS)
    guarded = _chain(TcpInputPlugin, OpenSearchOutputPlugin,
                     dedup=SequenceDedup())
    bare = _chain(BareInput, BareOutput, dedup=None)

    def reset():
        # Keep the working set flat: without this the stores grow a
        # round's worth of documents per iteration and cache pressure
        # drifts across the measurement.
        for chain in (guarded, bare):
            store = chain.pipeline.outputs[0].store
            for index in store.indices:
                store.delete_index(index)

    return paired_median(lambda: timed(_drive, guarded, stream),
                         lambda: timed(_drive, bare, stream), ROUNDS,
                         between=reset)


def test_disabled_resilience_overhead_within_budget():
    assert_within(_measure_disabled_ratio, DISABLED_BUDGET,
                  "disabled-resilience archiver path vs bare twins (x)")


def test_chaos_run_wall_time(once):
    """One full chaos run (fault schedule + shipper + breaker + oracle)
    end to end, timed."""
    from repro.resilience.chaos import bundled_chaos, run_chaos

    result = once(run_chaos, bundled_chaos()["kitchen-sink"])
    assert result.passed, result.summary()
