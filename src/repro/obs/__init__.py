"""Observability layer: tracing, analysis, metrics, and export.

The simulators accept a :class:`Tracer`; the default :data:`NULL_TRACER`
records nothing and costs one attribute check per hot-path site.  A
:class:`TraceRecorder` turns each hook call into one typed
:class:`TraceEvent` against the virtual clock and hands it, in order, to
its subscribers: ``observe(event)`` is every consumer's one entry point,
live and on replay alike.  The retained trace is itself a subscriber, an
:class:`EventLog`, which the exporters render as a Chrome
``trace_event`` JSON file (openable in Perfetto / ``chrome://tracing``),
a JSONL event log, or a per-agent/per-unit summary table.

On top of the raw trace sit the analysis passes and subscribers:

* :func:`latency_breakdown` — critical-path attribution: per-agent queue
  wait vs. service time, p50/p95/p99, dominant stage;
* :func:`calibration_report` — cost-model calibration: the Theorem 1-3
  predicted load shares against the observed busy-time shares, with a
  load-imbalance index and a verdict on the allocation;
* :class:`DriftEstimator` — the same predicted-vs-observed comparison,
  incrementally, for the control plane;
* :class:`MetricsRegistry` / :class:`MetricsSubscriber` — counters,
  gauges, and histograms with label support, exportable as JSON or
  Prometheus text exposition (:func:`prometheus_text`);
* :class:`SloEngine` / :func:`slo_report` — declarative service-level
  objectives (:class:`SloSpec`) evaluated online over sliding windows
  with error-budget burn accounting, or byte-identically from a recorded
  trace;
* :func:`audit_report` — decision provenance: reconstructs, from the
  trace alone, the causal chain behind every control-plane
  ``ReplanDecision`` (trigger evidence, decision, before/after effect);
* :mod:`repro.obs.dashboard` — the terminal dashboard:
  :func:`render_frame` is a pure plain-text frame renderer,
  :class:`DashboardPainter` paints it live on the kernel's snapshot
  cadence, and :func:`replay_frames` / :func:`final_frame` reconstruct
  the same frames from a recorded JSONL trace (``repro watch``).
"""

from repro.obs.tracer import (
    NULL_TRACER,
    EventLog,
    Subscriber,
    TraceEvent,
    TraceKind,
    TraceRecorder,
    Tracer,
)
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.analysis import latency_breakdown, percentile
from repro.obs.calibration import calibration_report
from repro.obs.drift import DriftEstimator
from repro.obs.slo import (
    DEFAULT_OBJECTIVE,
    SLO_METRICS,
    SloEngine,
    SloSpec,
    slo_report,
)
from repro.obs.audit import audit_report
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSubscriber,
    populate_from_summary,
    prometheus_text,
)
from repro.obs.dashboard import (
    Dashboard,
    DashboardPainter,
    DashboardState,
    final_frame,
    render_frame,
    replay_frames,
    tile_frames,
)

__all__ = [
    "NULL_TRACER",
    "EventLog",
    "Subscriber",
    "TraceEvent",
    "TraceKind",
    "TraceRecorder",
    "Tracer",
    "chrome_trace",
    "read_jsonl",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
    "latency_breakdown",
    "percentile",
    "calibration_report",
    "DriftEstimator",
    "DEFAULT_OBJECTIVE",
    "SLO_METRICS",
    "SloEngine",
    "SloSpec",
    "slo_report",
    "audit_report",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSubscriber",
    "populate_from_summary",
    "prometheus_text",
    "Dashboard",
    "DashboardPainter",
    "DashboardState",
    "final_frame",
    "render_frame",
    "replay_frames",
    "tile_frames",
]
