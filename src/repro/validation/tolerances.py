"""Declared tolerances: how close the P4 estimate must sit to oracle truth.

Each metric's tolerance is ``|p4 - truth| <= abs_slack + rel_tol * truth``
unless the metric declares exactness.  The table is the contract every
perf refactor is checked against (docs/validation.md reproduces it with
the rationale per row); tests import it so the docs, the checker and the
CLI can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerance:
    """One metric's acceptance envelope."""

    metric: str
    exact: bool = False
    rel_tol: float = 0.0
    abs_slack: float = 0.0
    note: str = ""

    def allows(self, p4_value: float, truth: float) -> bool:
        if self.exact:
            return p4_value == truth
        return abs(p4_value - truth) <= self.abs_slack + self.rel_tol * abs(truth)

    def upper(self, truth: float) -> float:
        return truth + self.abs_slack + self.rel_tol * abs(truth)

    def lower(self, truth: float) -> float:
        return truth - self.abs_slack - self.rel_tol * abs(truth)

    def describe(self) -> str:
        if self.exact:
            return "exact"
        parts = []
        if self.rel_tol:
            parts.append(f"±{self.rel_tol * 100:.0f}%")
        if self.abs_slack:
            parts.append(f"±{self.abs_slack:g} abs")
        return " + ".join(parts) or "exact"


#: Counter metrics are exact: the register accumulates the same IPv4
#: total-length units the oracle counts at the same observation point.
COUNTERS = Tolerance("counters", exact=True,
                     note="flow_bytes/flow_pkts vs arrivals since slot claim")

#: Every control-plane RTT sample must lie inside the oracle's observed
#: [min, max] envelope (widened by the tolerance), and the medians must
#: agree.  The data plane samples the *latest* per-packet RTT at each
#: extraction tick, so medians can differ on sampling phase alone.
RTT_MS = Tolerance("rtt_ms", rel_tol=0.20, abs_slack=2.0,
                   note="CP samples vs oracle per-packet envelope/median")

#: The ``pkt_loss`` register must exactly equal the oracle reference's
#: cell: the same stage over the same ingress arrivals with one cell per
#: flow, so when no other flow aliases the product's cell nothing may
#: differ.
LOSS_REGRESSIONS = Tolerance("loss_regressions", exact=True,
                             note="pkt_loss register vs oracle reference cell")

#: The *semantic* claim — regressions proxy true drops — is order-of-
#: magnitude: SACK recovery interleaves retransmissions with new data, so
#: one drop can produce ~2 regressions under tail-drop congestion, and
#: timeout recovery more.  The envelope bounds the proxy above at
#: ~3x(truth)+10; a separate coverage floor guards against a dead counter.
LOSS_PKTS = Tolerance("loss_packets", rel_tol=2.0, abs_slack=10.0,
                      note="pkt_loss register vs true dropped data packets")

#: Extra slack when the scenario deliberately reorders packets (reorder
#: impairment or jitter >= 1 ms): every late arrival is a potential
#: spurious regression.
LOSS_PKTS_REORDER = Tolerance("loss_packets_reorder", rel_tol=3.0, abs_slack=15.0,
                              note="loss tolerance under deliberate reordering")

#: Queue-delay peaks come from identity-matched TAP pairs, so a matched
#: P4 peak is exact; slack covers the peak packet being missed (stash
#: eviction) or a colliding flow inflating the per-flow register.
QUEUE_DELAY_MS = Tolerance("queue_delay_ms", rel_tol=0.15, abs_slack=1.0,
                           note="peak-hold occupancy vs oracle max residency")

#: A reported microburst's peak must be backed by true queue residency in
#: its window.
MICROBURST_MS = Tolerance("microburst_peak_ms", rel_tol=0.2, abs_slack=0.5,
                          note="digest peak vs oracle max in event window")

#: Count-min guarantees: never under-count; overestimate bounded by
#: eps*N = (e/width)*total inserted mass with P[violation] <= delta =
#: exp(-depth) per query.  The checker widens the bound by 2x before
#: failing so a fuzz run never trips on the declared tail probability.
SKETCH = Tolerance("sketch_bytes", rel_tol=0.0, abs_slack=0.0,
                   note="never under-count; over <= 2*(e/width)*N")

#: A claimed "long flow" must truly have approached the threshold: its
#: pre-claim payload bytes must be at least threshold - 2*eps*N (the
#: documented false-positive bound of the sketch).
LONG_FLOW_CLAIM = Tolerance("long_flow_claim", rel_tol=0.0, abs_slack=0.0,
                            note="claim implies true bytes >= thr - 2*eps*N")

#: RTT sample counts: the P4 stash can only lose matches to eviction or
#: collision, never invent them (32-bit signature compare), so the match
#: count is bounded above by the oracle's and below by a coverage floor.
RTT_COVERAGE = Tolerance("rtt_sample_count", rel_tol=0.05, abs_slack=8.0,
                         note="per-flow rtt_count <= oracle matches (+slack)")

#: Distribution percentiles (p50/p99) from the data-plane RTT histogram
#: vs numpy percentiles of the oracle's per-packet RTT samples.  The
#: histogram returns the bucket *upper bound*, biased high by up to one
#: log-bin ratio (~19 % at the default 48 bins over 500 us..2 s), so the
#: relative term dominates; the absolute slack covers thin tails.
RTT_DISTRIBUTION_MS = Tolerance("rtt_distribution_ms", rel_tol=0.25,
                                abs_slack=3.0,
                                note="histogram p50/p99 vs oracle percentile")

TOLERANCES = {
    t.metric: t
    for t in (COUNTERS, RTT_MS, LOSS_REGRESSIONS, LOSS_PKTS, LOSS_PKTS_REORDER,
              QUEUE_DELAY_MS, MICROBURST_MS, SKETCH, LONG_FLOW_CLAIM,
              RTT_COVERAGE, RTT_DISTRIBUTION_MS)
}
