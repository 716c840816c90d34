"""Behavioural model of a P4 programmable data plane.

Models the primitives the paper's Tofino program is built from, with the
semantics a P4 programmer sees:

- :mod:`repro.p4.hashes` — CRC hash engines (flow IDs, register indices);
- :mod:`repro.p4.registers` — stateful register arrays (numpy-backed,
  fixed width, index-checked) and the read/flip bank pair behind the
  histogram and time-window externs;
- :mod:`repro.p4.sketch` — the count-min sketch used for long-flow
  detection (§4, Cormode & Muthukrishnan);
- :mod:`repro.p4.parser` — header parser over either simulator packets or
  real wire-format bytes;
- :mod:`repro.p4.pipeline` — ingress/egress pipeline scaffolding and
  standard metadata;
- :mod:`repro.p4.externs` — digests (data-plane → control-plane
  notifications);
- :mod:`repro.p4.runtime` — a P4Runtime-like control API over a named
  program's objects.
"""

from repro import _lazy_exports

_EXPORTS = {
    "HashEngine": ".hashes",
    "crc32_tuple": ".hashes",
    "RegisterArray": ".registers",
    "CountMinSketch": ".sketch",
    "HeaderParser": ".parser",
    "ParsedHeaders": ".parser",
    "P4Pipeline": ".pipeline",
    "StandardMetadata": ".pipeline",
    "Digest": ".externs",
    "DigestReceiver": ".externs",
    "P4Program": ".runtime",
    "P4RuntimeClient": ".runtime",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
