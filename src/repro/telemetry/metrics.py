"""Typed instruments and the process-wide metrics registry.

Three instrument kinds, mirroring the Prometheus data model:

- :class:`Counter` — monotonically non-decreasing totals;
- :class:`Gauge` — values that go up and down (queue depths, cache sizes);
- :class:`Histogram` — fixed-bucket latency distributions that also retain a
  bounded window of raw observations so exact p50/p95/p99 can be extracted
  (bucket interpolation is never good enough to compare against the exact
  client-side summaries the loadgen already reports).

Every instrument is *gated* by default: when telemetry is disabled (the
initial state) a record call is a single attribute check on the shared
:data:`STATE` object and an immediate return — cheap enough to leave
instrument calls on the serving hot path unconditionally.  Subsystems whose
counters are load-bearing even without telemetry (the store's ``StoreStats``
view) create their registry with ``gated=False`` so recording always happens.

Instruments with ``labelnames`` are families: call ``.labels(key=value)`` to
get (and cache) the child that actually records.  Children share the family's
gating and appear as individual samples under the family name in exposition.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "STATE",
    "disable",
    "enable",
    "enabled",
    "hold",
    "registry",
    "release",
]

#: Shared latency bucket boundaries (milliseconds, upper bounds; +Inf is
#: implicit).  The daemon's server-side histograms and the loadgen's
#: client-side histograms both use these so the two distributions line up
#: bucket-for-bucket in ``BENCH_service.json``.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
)


class _TelemetryState:
    """The one mutable flag every gated instrument checks before recording.

    ``holds`` counts the live :func:`hold` calls and ``prior`` is the flag
    the first of them found, which the last :func:`release` puts back.
    """

    __slots__ = ("enabled", "holds", "prior")

    def __init__(self) -> None:
        self.enabled = False
        self.holds = 0
        self.prior = False


STATE = _TelemetryState()


def enable() -> None:
    """Turn recording on for all gated instruments (process-wide)."""
    STATE.enabled = True


def disable() -> None:
    """Return gated instruments to their no-op fast path."""
    STATE.enabled = False


def enabled() -> bool:
    """Whether gated instruments currently record."""
    return STATE.enabled


def hold() -> None:
    """Keep recording on until the matching :func:`release`.

    Holds nest: several owners (say, two daemons in one process) may hold
    the flag at once, and it returns to the state the first hold found only
    when the last holder releases it.
    """
    if STATE.holds == 0:
        STATE.prior = STATE.enabled
    STATE.holds += 1
    STATE.enabled = True


def release() -> None:
    """Drop one :func:`hold`; the last one restores the flag it found."""
    if STATE.holds == 0:
        raise RuntimeError("telemetry.release() without a matching hold()")
    STATE.holds -= 1
    if STATE.holds == 0:
        STATE.enabled = STATE.prior


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not label or not all(c.isalnum() or c == "_" for c in label) or label[0].isdigit():
            raise ValueError(f"invalid label name {label!r}")
        if label.startswith("__"):
            raise ValueError(f"label name {label!r} is reserved")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names!r}")
    return names


class _Instrument:
    """Shared family plumbing: naming, labels, child creation."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        gated: bool = True,
    ) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = _validate_labelnames(labelnames)
        self._gated = gated
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}
        # ``labels()`` call shape -> child: only validated shapes get in, so
        # a hit needs neither name validation nor string conversion.
        self._lookup: Dict[Tuple[Tuple[str, object], ...], "_Instrument"] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: object) -> "_Instrument":
        """The child instrument for one label combination (created on demand)."""
        shape = tuple(labels.items())
        child = self._lookup.get(shape)
        if child is not None:
            return child
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} has no labels")
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            self._lookup[shape] = child
        return child

    def _make_child(self) -> "_Instrument":
        raise NotImplementedError

    def _require_scalar(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is a labelled family; record through .labels(...)"
            )

    def samples(self) -> Iterator[Tuple[Dict[str, str], "_Instrument"]]:
        """Yield ``(labels, child)`` pairs — one empty-label pair for scalars."""
        if not self.labelnames:
            yield {}, self
        else:
            for key, child in list(self._children.items()):
                yield dict(zip(self.labelnames, key)), child


class Counter(_Instrument):
    """A monotonically non-decreasing total."""

    kind = "counter"

    def __init__(
        self,
        name: str = "counter",
        help: str = "",
        labelnames: Sequence[str] = (),
        gated: bool = True,
    ) -> None:
        super().__init__(name, help, labelnames, gated)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help, (), self._gated)

    def inc(self, amount: float = 1.0) -> None:
        if self._gated and not STATE.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self._require_scalar()
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """A value that can move in both directions."""

    kind = "gauge"

    def __init__(
        self,
        name: str = "gauge",
        help: str = "",
        labelnames: Sequence[str] = (),
        gated: bool = True,
    ) -> None:
        super().__init__(name, help, labelnames, gated)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help, (), self._gated)

    def set(self, value: float) -> None:
        if self._gated and not STATE.enabled:
            return
        self._require_scalar()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._gated and not STATE.enabled:
            return
        self._require_scalar()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Instrument):
    """Fixed-bucket distribution with a raw-observation window for exact quantiles.

    ``buckets`` are strictly increasing upper bounds; the +Inf bucket is
    implicit (``counts`` has one more entry than ``buckets``).  The last
    ``window`` raw observations are retained in a ring buffer so
    :meth:`percentile` is *exact* over the recent window rather than
    bucket-interpolated.
    """

    kind = "histogram"

    #: Raw observations retained for exact percentile extraction.
    DEFAULT_WINDOW = 4096

    def __init__(
        self,
        name: str = "histogram",
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_MS,
        labelnames: Sequence[str] = (),
        gated: bool = True,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        super().__init__(name, help, labelnames, gated)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must strictly increase, got {bounds!r}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._window = max(1, int(window))
        self._ring: List[float] = []
        self._ring_pos = 0

    def _make_child(self) -> "Histogram":
        return Histogram(
            self.name, self.help, self.buckets, (), self._gated, self._window
        )

    def observe(self, value: float) -> None:
        if self._gated and not STATE.enabled:
            return
        self._require_scalar()
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        if len(self._ring) < self._window:
            self._ring.append(value)
        else:
            self._ring[self._ring_pos] = value
            self._ring_pos = (self._ring_pos + 1) % self._window

    def percentile(self, p: float) -> float:
        """Exact percentile (0..100) over the retained observation window."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._ring:
            return 0.0
        ordered = sorted(self._ring)
        rank = min(len(ordered) - 1, max(0, round(p / 100 * (len(ordered) - 1))))
        return ordered[rank]

    def percentiles(self) -> Dict[str, float]:
        """The canonical p50/p95/p99 triple used across bench reports."""
        return {
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts, ending with the +Inf total."""
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return out

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe view: finite upper bounds plus an overflow count."""
        return {
            "upper_bounds": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            **self.percentiles(),
        }


AnyInstrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for instruments, in stable registration order.

    ``counter``/``gauge``/``histogram`` are idempotent: asking again for an
    existing name returns the original instrument (and raises if the kind or
    labels disagree), so module-level call sites and per-object call sites
    can share families without coordination.
    """

    def __init__(self, gated: bool = True) -> None:
        self._gated = gated
        self._instruments: Dict[str, AnyInstrument] = {}
        self._lock = threading.Lock()

    @property
    def gated(self) -> bool:
        return self._gated

    def _get_or_create(self, cls: type, name: str, kwargs: Dict[str, object]) -> AnyInstrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                labelnames = tuple(kwargs.get("labelnames", ()))  # type: ignore[arg-type]
                if tuple(existing.labelnames) != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, asked for {labelnames}"
                    )
                return existing
            instrument = cls(name, gated=self._gated, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        out = self._get_or_create(Counter, name, {"help": help, "labelnames": labelnames})
        assert isinstance(out, Counter)
        return out

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        out = self._get_or_create(Gauge, name, {"help": help, "labelnames": labelnames})
        assert isinstance(out, Gauge)
        return out

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_MS,
        labelnames: Sequence[str] = (),
        window: int = Histogram.DEFAULT_WINDOW,
    ) -> Histogram:
        out = self._get_or_create(
            Histogram,
            name,
            {"help": help, "buckets": buckets, "labelnames": labelnames, "window": window},
        )
        assert isinstance(out, Histogram)
        return out

    def get(self, name: str) -> Optional[AnyInstrument]:
        return self._instruments.get(name)

    def instruments(self) -> List[AnyInstrument]:
        return list(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)


#: The process-wide registry backing the daemon, engine, and span metrics.
_DEFAULT_REGISTRY = MetricsRegistry(gated=True)


def registry() -> MetricsRegistry:
    """The process-wide gated registry."""
    return _DEFAULT_REGISTRY
