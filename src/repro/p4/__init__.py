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

from repro.p4.hashes import HashEngine, crc32_tuple
from repro.p4.registers import RegisterArray
from repro.p4.sketch import CountMinSketch
from repro.p4.parser import HeaderParser, ParsedHeaders
from repro.p4.pipeline import P4Pipeline, StandardMetadata
from repro.p4.externs import Digest, DigestReceiver
from repro.p4.runtime import P4Program, P4RuntimeClient

__all__ = [
    "HashEngine",
    "crc32_tuple",
    "RegisterArray",
    "CountMinSketch",
    "HeaderParser",
    "ParsedHeaders",
    "P4Pipeline",
    "StandardMetadata",
    "Digest",
    "DigestReceiver",
    "P4Program",
    "P4RuntimeClient",
]
