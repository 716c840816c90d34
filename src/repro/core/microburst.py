"""Data-plane microburst detection (§3.3.3, §4.2).

"Because the duration of microbursts can be in the order of tens of
microseconds, the sampling approach might not detect them.  For this,
microburst detection should be fully implemented in the data plane."

The detector watches the per-packet queueing delay produced by the
queue-monitor stage.  A hysteresis pair of thresholds (fractions of the
full-buffer drain time) marks burst start and end; on the falling edge a
digest reports the burst's nanosecond start time, duration, peak delay
and packet count — the report format of §3.3.3.
"""

from __future__ import annotations

from repro.p4.externs import Digest
from repro.p4.pipeline import PipelineStage, StandardMetadata
from repro.p4.parser import ParsedHeaders
from repro.p4.registers import RegisterArray
from repro.p4.runtime import P4Program
from repro.core.config import MonitorConfig
from repro.core.flow_table import PORT_EGRESS_TAP

# Queue-delay hysteresis thresholds, as fractions of the maximum
# (full-buffer) queueing delay: a burst starts at ON and ends below OFF.
ON_FRACTION = 0.5
OFF_FRACTION = 0.25
assert 0 < OFF_FRACTION < ON_FRACTION <= 1.0


class MicroburstStage(PipelineStage):
    name = "microburst"

    def __init__(self, program: P4Program, config: MonitorConfig) -> None:
        self.config = config
        max_delay = config.max_queue_delay_ns()
        self.on_threshold_ns = int(ON_FRACTION * max_delay)
        self.off_threshold_ns = int(OFF_FRACTION * max_delay)
        ts_bits = config.timestamp_bits
        self._ts_mask = (1 << ts_bits) - 1

        # One detector instance per monitored egress queue, registers
        # sized by port count as a per-port P4 register would be.
        ports = config.monitored_ports
        self.ports = ports
        self.state = program.register(RegisterArray("mb_state", ports, 8))
        self.start = program.register(RegisterArray("mb_start", ports, ts_bits))
        self.peak = program.register(RegisterArray("mb_peak", ports, ts_bits))
        self.pkt_count = program.register(RegisterArray("mb_pkts", ports, 32))
        self.digest = program.digest(Digest("microburst"))

        self.bursts_detected = 0

    def process(self, hdr: ParsedHeaders, meta: StandardMetadata) -> None:
        if meta.ingress_port != PORT_EGRESS_TAP or meta.queue_delay_ns < 0:
            return
        delay = meta.queue_delay_ns
        now = meta.ingress_timestamp_ns
        port = meta.egress_port_id % self.ports
        in_burst = self.state.read(port)
        if not in_burst:
            if delay >= self.on_threshold_ns:
                # Burst start: the rise began when this packet entered the
                # queue, i.e. ``delay`` nanoseconds ago.
                self.state.write(port, 1)
                self.start.write(port, max(0, now - delay))
                self.peak.write(port, delay)
                self.pkt_count.write(port, 1)
            return
        self.peak.maximum(port, delay)
        self.pkt_count.add(port, 1)
        if delay <= self.off_threshold_ns:
            self.state.write(port, 0)
            # ``mb_start`` holds the start masked to the register width:
            # the duration is the wrapped difference, as queue delay and
            # RTT are, and the start is reported in sim time.
            duration = (now - self.start.read(port)) & self._ts_mask
            self.bursts_detected += 1
            self.digest.emit(
                start_ns=now - duration,
                duration_ns=duration,
                peak_queue_delay_ns=self.peak.read(port),
                packets=self.pkt_count.read(port),
                port_id=port,
            )
