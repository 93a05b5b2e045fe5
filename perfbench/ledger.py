"""Per-layer ledgers, measured from outside the program.

:class:`LayerTimer` times calls into each build layer's public functions by
wrapping them for the duration of a traced run (and restoring them after).
Spans nest: a layer's figure is its *self* time, i.e. its wall time minus
the part covered by the named layers it calls, so the figures of one build
add up to the time the named layers cover and ``store.overhead_s`` is what
is left of ``build_s``.

:func:`wire_ledger` replays a query stream in-process, at the batch size the
daemon was observed to coalesce, through the same public functions the
daemon calls per flush, and reports microseconds per query for each stage.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

#: Every registered DP kernel; ``histograms.dp.<kernel>_s`` is reported for each.
KERNELS = ("exact", "vectorized", "divide_conquer", "compiled_vectorized",
           "compiled_divide_conquer")

#: Build layers timed by :class:`LayerTimer`, in report order.
BUILD_LAYERS = (
    "models.normalise_s",
    "histograms.cost_oracle_s",
    *(f"histograms.dp.{kernel}_s" for kernel in KERNELS),
    "wavelets.dp_s",
    "partition.shards_s",
    "partition.allocate_s",
    "evaluation.expected_error_s",
    "io.pack_put_s",
    "store.fingerprint_s",
)

#: Wire-path stages of one daemon flush, in the order the daemon runs them.
WIRE_STAGES = (
    "protocol.parse_us",
    "protocol.decode_us",
    "queries.batch_us",
    "engine.answer_us",
    "engine.attribute_us",
    "protocol.responses_us",
    "protocol.encode_us",
)


class LayerTimer:
    """Self-time accounting for wrapped layer entry points."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [name, 0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self.self_s[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def timed(self, name: str, function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            self.patch(owner, attribute, classmethod(self.timed(name, original.__func__)))
        else:
            self.patch(owner, attribute, self.timed(name, original))

    def install(self) -> None:
        """Wrap every build layer's entry points (undo with :meth:`restore`)."""
        from repro.evaluation import errors
        from repro.histograms import factory
        from repro.io.binary_format import SynopsisPack
        from repro.models.frequency import FrequencyDistributions
        from repro.models.tuple_pdf import TuplePdfModel
        from repro.partition import builder
        from repro.service import store
        from repro.wavelets import nonsse, sse

        self.wrap(FrequencyDistributions, "from_pairs", "models.normalise_s")
        self.wrap(TuplePdfModel, "to_frequency_distributions", "models.normalise_s")
        self.wrap(factory, "make_cost_function", "histograms.cost_oracle_s")
        resolve = factory.__dict__["resolve_kernel"]
        self.patch(factory, "resolve_kernel", lambda name, cost_fn: _TimedKernel(
            resolve(name, cost_fn), self))
        self.wrap(nonsse, "restricted_wavelet_sweep", "wavelets.dp_s")
        self.wrap(sse, "sse_optimal_wavelet", "wavelets.dp_s")
        self.wrap(builder, "build_shards", "partition.shards_s")
        self.patch(builder, "BudgetAllocator", _timed_allocator(builder.BudgetAllocator, self))
        self.wrap(builder, "expected_error", "evaluation.expected_error_s")
        self.wrap(errors, "expected_error", "evaluation.expected_error_s")
        self.wrap(SynopsisPack, "put", "io.pack_put_s")
        self.wrap(store, "fingerprint_data", "store.fingerprint_s")

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> Dict[str, float]:
        return dict(self.self_s)


class _TimedKernel:
    """A resolved DP kernel whose ``solve`` is timed under its own name."""

    def __init__(self, kernel: Any, timer: LayerTimer):
        self._kernel = kernel
        self._timer = timer
        self.name = kernel.name

    def solve(self, cost_fn, max_buckets):
        with self._timer.span(f"histograms.dp.{self.name}_s"):
            return self._kernel.solve(cost_fn, max_buckets)

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._kernel, attribute)


def _timed_allocator(base: type, timer: LayerTimer) -> type:
    class TimedAllocator(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs):
            with timer.span("partition.allocate_s"):
                super().__init__(*args, **kwargs)

        def sweep(self, *args, **kwargs):
            with timer.span("partition.allocate_s"):
                return super().sweep(*args, **kwargs)

    return TimedAllocator


def build_layer_metrics(spans: Dict[str, float], build_s: float) -> Dict[str, float]:
    """The build ledger: per-layer self seconds plus the uncovered remainder."""
    metrics = {name: spans.get(name, 0.0) for name in BUILD_LAYERS}
    metrics["histograms.dp_s"] = sum(metrics[f"histograms.dp.{k}_s"] for k in KERNELS)
    covered = sum(spans.get(name, 0.0) for name in BUILD_LAYERS)
    metrics["store.overhead_s"] = build_s - covered
    metrics["store.named_layers_frac"] = covered / build_s if build_s > 0 else 0.0
    return metrics


def wire_ledger(lines: List[bytes], engine: Any, batch_size: int) -> Dict[str, float]:
    """Microseconds per query for each stage of a daemon flush, replayed in-process."""
    from repro.service.protocol import QueryRequest, parse_request_line, responses_for
    from repro.service.queries import QueryBatch

    totals = dict.fromkeys(WIRE_STAGES, 0.0)
    clock = time.perf_counter
    batch_size = max(1, batch_size)
    for first in range(0, len(lines), batch_size):
        chunk = lines[first:first + batch_size]
        t0 = clock()
        payloads = [parse_request_line(line) for line in chunk]
        t1 = clock()
        requests = [QueryRequest.from_dict(p) for p in payloads]
        t2 = clock()
        batch = QueryBatch.from_requests(requests)
        t3 = clock()
        answers = engine.answer(batch)
        t4 = clock()
        errors = engine.attribute_errors(batch)
        t5 = clock()
        responses = responses_for(requests, answers, errors)
        t6 = clock()
        encoded = [(json.dumps(r.to_dict(), separators=(",", ":")) + "\n").encode()
                   for r in responses]
        t7 = clock()
        for stage, elapsed in zip(WIRE_STAGES, np.diff([t0, t1, t2, t3, t4, t5, t6, t7])):
            totals[stage] += elapsed
        del encoded
    return {stage: total / len(lines) * 1e6 for stage, total in totals.items()}
