"""Synopsis serving layer: cached store, batch engine, wire protocol, daemon.

The construction side of this package (``repro.histograms``,
``repro.wavelets``, the :func:`~repro.core.builders.build` front door with
its declarative :class:`~repro.core.spec.SynopsisSpec`) turns probabilistic
data into small synopses; this subpackage is the deployment side that stands
those synopses up against query traffic:

* :class:`SynopsisStore` — content-addressed build cache (in-memory + JSON
  or columnar/mmap on disk, keyed by ``SynopsisSpec.canonical()``) so every
  (dataset, spec) pair pays its dynamic program exactly once;
* :class:`BatchQueryEngine` / :func:`answer_batch` — vectorised evaluation
  of mixed point / range-sum / range-avg :class:`QueryBatch` es, with
  per-query expected-error attribution from the per-item expected errors;
* :class:`QueryRequest` / :class:`QueryResponse` — the versioned wire
  schema (:mod:`repro.service.protocol`), the single serialisation point
  shared by the engine path, the CLI and the daemon;
* :class:`ServingDaemon` — the asyncio TCP daemon
  (:mod:`repro.service.server`): micro-batching request coalescer,
  admission control, graceful-degradation ladder, draining shutdown;
* :func:`generate_query_mix` / :func:`replay` / :func:`run_loadgen` —
  seeded workload generation and the closed/open-loop load harness
  (:mod:`repro.service.loadgen`) behind ``BENCH_service.json``.

See the "serving layer" and "serving daemon" sections of DESIGN.md for
keying, coalescing, admission-control and complexity notes.
"""

from .engine import BatchQueryEngine, answer_batch, answer_serial
from .loadgen import LoadgenClient, requests_from_batch, run_loadgen, run_loadgen_sync
from .protocol import (
    MIN_PROTOCOL_VERSION,
    OP_METRICS,
    PROTOCOL_VERSION,
    RESPONSE_STATUSES,
    QueryRequest,
    QueryResponse,
    error_response,
    latency_summary,
    responses_for,
)
from .queries import POINT, QUERY_KINDS, RANGE_AVG, RANGE_SUM, QueryBatch
from .replay import generate_query_mix, replay, stream_rng
from .server import DEFAULT_PORT, DaemonConfig, ServingDaemon
from .store import StoreStats, SynopsisStore, fingerprint_data

__all__ = [
    "SynopsisStore",
    "StoreStats",
    "fingerprint_data",
    "QueryBatch",
    "QUERY_KINDS",
    "POINT",
    "RANGE_SUM",
    "RANGE_AVG",
    "BatchQueryEngine",
    "answer_batch",
    "answer_serial",
    "generate_query_mix",
    "replay",
    "stream_rng",
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "OP_METRICS",
    "RESPONSE_STATUSES",
    "QueryRequest",
    "QueryResponse",
    "responses_for",
    "error_response",
    "latency_summary",
    "DaemonConfig",
    "ServingDaemon",
    "DEFAULT_PORT",
    "LoadgenClient",
    "run_loadgen",
    "run_loadgen_sync",
    "requests_from_batch",
]
