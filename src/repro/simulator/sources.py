"""Workload sources for the simulators (public façade).

The implementation lives in :mod:`repro.core.streams` so the lowest layer
of the library (datasets, baselines, the sequential engine) can use the
same protocol without importing the simulator package; this module is the
simulator-facing name for it.  See :class:`WorkloadSource` for the
single-pass / ``prefix(n)`` contract and :func:`as_source` for coercion.

A replayable streaming CSV source is provided by
:func:`repro.datasets.loader.stream_source`.
"""

from repro.core.streams import (
    IterSource,
    ListSource,
    Lookahead,
    WorkloadSource,
    as_source,
)

__all__ = [
    "WorkloadSource",
    "ListSource",
    "IterSource",
    "Lookahead",
    "as_source",
]
