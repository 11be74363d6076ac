"""End-to-end observability for the sweep stack.

One submitted sweep used to disappear into the service: the executor
printed progress lines, ``/v1/metrics`` returned an ad-hoc JSON blob,
and nothing connected an HTTP request to the runs it caused.  This
package gives every request a propagated identity and a complete
observable lifecycle, in four stdlib-only layers:

- :mod:`repro.obs.context` — :class:`TraceContext`, a W3C
  ``traceparent``-style trace/span identity that travels on the wire
  (HTTP header *and* an optional ``sweep_spec`` field) from
  :class:`~repro.serve.client.ServeClient` through the service, the
  coalescer, the executor and the cache tiers;
- :mod:`repro.obs.spans` — :class:`SpanRecorder`, which collects the
  per-request span tree (http → job → coalesce → cache-tier → execute →
  per-run) and renders it through the *existing* Perfetto trace-event
  schema (:mod:`repro.telemetry.perfetto`), retrievable at
  ``GET /v1/sweeps/{id}/trace``;
- :mod:`repro.obs.log` — one structured logger (``repro``), event-keyed
  records carrying trace_id/digest/cache tier/outcome, JSON or
  ``key=value`` rendering (``--log-json`` / ``--log-level`` on
  ``repro serve``); silent until configured, so library users and tests
  pay nothing;
- :mod:`repro.obs.prom` + :mod:`repro.obs.instruments` — a Prometheus
  text-exposition metrics plane (``GET /v1/metrics?format=prometheus``)
  with request-latency and queue-wait histograms, in-flight gauges and
  per-tier cache counters.

See ``docs/observability.md`` for the metric reference, trace anatomy
and logging schema.
"""

from .context import TraceContext
from .log import configure_logging, emit, get_logger
from .prom import Counter, Gauge, Histogram, PromRegistry, render_snapshot
from .spans import Span, SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PromRegistry",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "configure_logging",
    "emit",
    "get_logger",
    "render_snapshot",
]
