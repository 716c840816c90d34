"""perfSONAR substrate (Fig. 2's architecture, scoped to what the paper
integrates with).

- :mod:`repro.perfsonar.tools` — the Tools layer: iperf3 / ping / loss
  measurements run *actively* over the simulator between perfSONAR nodes;
- :mod:`repro.perfsonar.pscheduler` — periodic test scheduling;
- :mod:`repro.perfsonar.psconfig` — the configuration layer, including
  the paper's ``config-P4`` command extension (Fig. 6);
- :mod:`repro.perfsonar.logstash` — the data-processing pipeline of
  Fig. 7: TCP input plugin → filters → OpenSearch output plugin;
- :mod:`repro.perfsonar.opensearch` — an in-memory OpenSearch-like
  document store with index/search/aggregation;
- :mod:`repro.perfsonar.archiver` — glues the control plane's Report_v1
  stream through Logstash into OpenSearch;
- :mod:`repro.perfsonar.node` — a perfSONAR node combining all of the
  above, used both standalone (the 'regular perfSONAR' baseline of
  Table 1) and P4-enhanced.
"""

from repro import _lazy_exports

_EXPORTS = {
    "OpenSearchStore": ".opensearch",
    "LogstashPipeline": ".logstash",
    "TcpInputPlugin": ".logstash",
    "OpenSearchOutputPlugin": ".logstash",
    "Archiver": ".archiver",
    "PSConfig": ".psconfig",
    "ConfigP4Command": ".psconfig",
    "PScheduler": ".pscheduler",
    "TestSpec": ".pscheduler",
    "PerfSonarNode": ".node",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
