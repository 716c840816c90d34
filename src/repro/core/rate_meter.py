"""Optional data-plane rate alerting via trTCM meters.

The control plane's throughput alerts (a_N) observe at t_N granularity;
a meter in the pipeline classifies *every packet* at line rate, so a flow
exceeding its committed/peak rates is flagged within packets, not
sampling intervals — the same argument §4.2 makes for microbursts,
applied to rate policing.  Disabled by default
(``MonitorConfig.rate_meter_enabled``); rates are fractions of the
monitored bottleneck.
"""

from __future__ import annotations

from repro.p4.externs import Digest
from repro.p4.meters import MeterArray, MeterColor
from repro.p4.pipeline import PipelineStage, StandardMetadata
from repro.p4.parser import ParsedHeaders
from repro.p4.registers import RegisterArray
from repro.p4.runtime import P4Program
from repro.core.config import MonitorConfig
from repro.core.flow_table import PORT_INGRESS_TAP


class RateMeterStage(PipelineStage):
    name = "rate_meter"

    def __init__(self, program: P4Program, config: MonitorConfig) -> None:
        self.config = config
        cir = max(1, int(config.rate_meter_cir_fraction * config.bottleneck_rate_bps))
        pir = max(cir, int(config.rate_meter_pir_fraction * config.bottleneck_rate_bps))
        self.meter = MeterArray(
            "flow_meter", config.flow_slots,
            cir_bps=cir, pir_bps=pir,
            cbs_bytes=config.rate_meter_burst_bytes,
            pbs_bytes=2 * config.rate_meter_burst_bytes,
        )
        self.red_count = program.register(
            RegisterArray("meter_red_count", config.flow_slots, 32)
        )
        self.digest = program.digest(Digest("rate_alert"))
        self.alerts_emitted = 0

    def process(self, hdr: ParsedHeaders, meta: StandardMetadata) -> None:
        if meta.ingress_port != PORT_INGRESS_TAP or hdr.payload_len == 0:
            return
        idx = meta.flow_slot
        color = self.meter.execute(idx, hdr.ip_total_len, meta.ingress_timestamp_ns)
        if color is not MeterColor.RED:
            return
        count = self.red_count.add(idx, 1)
        if count == self.config.rate_meter_red_threshold:
            # Exactly-once per threshold crossing (the register keeps
            # counting; the CP may clear it to re-arm).
            self.alerts_emitted += 1
            self.digest.emit(
                flow_id=meta.flow_id,
                red_packets=count,
                time_ns=meta.ingress_timestamp_ns,
                pir_bps=self.meter.pir_bps,
            )
