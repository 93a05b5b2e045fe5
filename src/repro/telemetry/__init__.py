"""Dependency-free observability: metrics, spans, exposition, structured logs.

The layer has one process-wide switch (:func:`enable` / :func:`disable`,
off by default; :func:`hold` / :func:`release` for owners that keep it on
for a while, such as a running daemon) guarding every *gated* instrument and
span, so the serving hot path pays a single attribute check when
observability is off.  See DESIGN.md's "Telemetry" section for the
instrument taxonomy and the span marshalling protocol across process pools.
"""

from .exposition import CONTENT_TYPE, MetricFamily, parse_prometheus_text, render_prometheus
from .logs import (
    JsonLineFormatter,
    RateLimiter,
    configure_logging,
    get_logger,
    log_event,
)
from .metrics import (
    LATENCY_BUCKETS_MS,
    STATE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    hold,
    registry,
    release,
)
from .tracing import NULL_SPAN, Span, adopt_spans, capture_spans, span, tracing_active

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "LATENCY_BUCKETS_MS",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_SPAN",
    "RateLimiter",
    "STATE",
    "Span",
    "adopt_spans",
    "capture_spans",
    "configure_logging",
    "disable",
    "enable",
    "enabled",
    "get_logger",
    "hold",
    "log_event",
    "parse_prometheus_text",
    "registry",
    "release",
    "render_prometheus",
    "span",
    "tracing_active",
]
