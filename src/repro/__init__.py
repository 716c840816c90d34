"""repro — reproduction of "Enhancing perfSONAR Measurement Capabilities
using P4 Programmable Data Planes" (Mazloum et al., SC-W 2023).

The package provides, in pure Python (numpy for hot state):

- :mod:`repro.netsim` — a nanosecond-resolution discrete-event network
  simulator: links, store-and-forward switches with tail-drop FIFO queues,
  passive optical TAPs, and impairment shims.
- :mod:`repro.tcp` — a packet-level TCP implementation (Reno/CUBIC, fast
  retransmit, RTO, receiver window, application pacing) plus iPerf3-like
  traffic applications.
- :mod:`repro.p4` — a behavioural model of a P4 programmable data plane:
  parser over wire-format bytes, stateful registers, CRC hash engines, a
  count-min sketch and read/flip bank-pair externs, with a P4Runtime-like
  control API.
- :mod:`repro.core` — the paper's contribution: the passive per-flow
  monitor program (throughput, RTT, loss, queue occupancy), microburst
  detection, sender/receiver-vs-network limitation classification, and the
  control plane with configurable reporting intervals and alert thresholds.
- :mod:`repro.perfsonar` — a perfSONAR substrate: active measurement tools,
  pScheduler, the pSConfig ``config-P4`` extension, a Logstash-like
  pipeline and an OpenSearch-like archive.
- :mod:`repro.mmwave` — a 60 GHz mmWave link model with LOS blockage and
  the three blockage detectors compared in the paper (P4 IAT-based,
  throughput-based, RSSI-based).
- :mod:`repro.experiments` — one runnable scenario per paper table/figure.

Each subpackage resolves the names it re-exports on first use, so a
one-shot command imports what it builds and no more (docs/profiling.md,
"Cold start").

Quickstart::

    from repro.experiments.fig9_perflow import run_fig9
    result = run_fig9(duration_s=20.0)
    print(result.summary())
"""

import importlib
import logging
from typing import Callable, Dict, List, Optional, TextIO, Tuple

from repro._version import __version__

__all__ = ["__version__", "configure_logging"]

# Library convention: stay silent unless the application configures a
# handler (the CLI does, via --verbose/--quiet).
logging.getLogger("repro").addHandler(logging.NullHandler())


def configure_logging(level: int = logging.INFO,
                      stream: Optional[TextIO] = None) -> logging.Logger:
    """Attach one stream handler (stderr by default) to the ``repro``
    logger.  Idempotent: calling again replaces the previous handler, so
    tests and repeated CLI invocations don't stack duplicates."""
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if not isinstance(handler, logging.NullHandler):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(
        "%(asctime)s %(levelname)-7s %(name)s: %(message)s", "%H:%M:%S"))
    logger.addHandler(handler)
    logger.setLevel(level)
    return logger


def _lazy_exports(package: str, exports: Dict[str, str]
                  ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """A package's PEP 562 ``__getattr__`` and ``__dir__`` over
    ``exports``, a ``{name: module}`` map (module names relative to
    ``package``): a re-exported name imports its module on first use and
    is then cached in the package, so importing a package costs only
    what its caller touches.  Any other public name resolves as a
    submodule, as an eager ``__init__`` importing it would have."""
    namespace = vars(importlib.import_module(package))

    def __getattr__(name: str) -> object:
        if name in exports:
            value = getattr(importlib.import_module(exports[name], package), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
