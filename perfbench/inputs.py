"""Seeded inputs the benchmark owns: models and query streams.

Everything here is generated with the benchmark's own numpy code and built
through the public model constructors, so a change to the library's dataset
generators or replay helpers cannot silently change the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import TuplePdfModel, ValuePdfModel

#: Query-kind codes of a generated stream, in the order of ``KIND_NAMES``.
KIND_NAMES = ("point", "range_sum", "range_avg")
KIND_SHARES = (0.5, 0.3, 0.2)
MEAN_RANGE_LENGTH = 16


def zipf_value_pdf(
    rng: np.random.Generator,
    n: int,
    *,
    ranked: bool,
    peak: float = 2000.0,
    skew: float = 0.8,
    decimals: int = 3,
) -> ValuePdfModel:
    """A value-pdf whose expected frequencies follow a Zipf profile.

    Each item carries one to three outcomes (equally many items of each
    count, so the amount of work does not depend on the seed) spread around its nominal Zipf
    frequency, holding between 60% and 100% of its mass (the rest is the
    implicit zero).  ``ranked=True`` orders the items by decreasing expected
    frequency, which makes the SSE objective admit monotone DP splits;
    ``ranked=False`` shuffles them.  ``decimals`` sets how finely outcome
    values are rounded, and so how many distinct values the grid holds.
    """
    nominal = peak * np.arange(1, n + 1, dtype=float) ** (-skew)
    counts = rng.permutation(np.arange(n) % 3 + 1)
    offsets = rng.uniform(-0.3, 0.3, size=(n, 3)) * np.maximum(nominal, 1.0)[:, None]
    values = np.round(np.maximum(nominal[:, None] + offsets, 0.0), decimals)
    raw = rng.random((n, 3)) + 0.05
    raw[np.arange(3)[None, :] >= counts[:, None]] = 0.0
    probs = raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.6, 1.0, size=(n, 1))
    expected = (values * probs).sum(axis=1)
    order = np.argsort(-expected, kind="stable") if ranked else rng.permutation(n)
    items = [
        [(float(values[i, k]), float(probs[i, k])) for k in range(int(counts[i]))]
        for i in order
    ]
    return ValuePdfModel(items)


def tuple_pdf(rng: np.random.Generator, n: int, tuples: int, *, window: int = 8) -> TuplePdfModel:
    """A tuple-pdf: each tuple spreads its mass over 1-3 nearby items (equally many of each)."""
    anchors = rng.integers(0, n, size=tuples)
    counts = rng.permutation(np.arange(tuples) % 3 + 1)
    rows: List[List[Tuple[int, float]]] = []
    for anchor, count in zip(anchors.tolist(), counts.tolist()):
        lo, hi = max(0, anchor - window), min(n - 1, anchor + window)
        items = rng.choice(np.arange(lo, hi + 1), size=min(count, hi - lo + 1), replace=False)
        mass = rng.dirichlet(np.ones(items.size)) * rng.uniform(0.6, 1.0)
        rows.append([(int(i), float(p)) for i, p in zip(items, mass)])
    return TuplePdfModel(rows, domain_size=n)


@dataclass(frozen=True)
class QueryStream:
    """A seeded mix of point, range-sum and range-avg queries over ``[0, n)``."""

    kinds: np.ndarray  # int codes into KIND_NAMES
    starts: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return int(self.kinds.size)

    def line(self, position: int, request_id: int) -> bytes:
        """Query ``position`` as one v2 wire line with the given id."""
        return (
            b'{"version":2,"id":%d,"kind":"%s","start":%d,"end":%d}\n'
            % (
                request_id,
                KIND_NAMES[self.kinds[position]].encode(),
                self.starts[position],
                self.ends[position],
            )
        )


def query_stream(rng: np.random.Generator, n: int, count: int) -> QueryStream:
    """``count`` queries: 50/30/20 point/range-sum/range-avg, mean range 16."""
    kinds = rng.choice(len(KIND_NAMES), size=count, p=KIND_SHARES)
    lengths = np.where(kinds == 0, 1, rng.geometric(1.0 / MEAN_RANGE_LENGTH, size=count))
    lengths = np.minimum(lengths, n)
    starts = rng.integers(0, n - lengths + 1)
    ends = starts + lengths - 1
    return QueryStream(kinds.astype(np.int64), starts.astype(np.int64), ends.astype(np.int64))
