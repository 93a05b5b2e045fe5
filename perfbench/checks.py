"""Correctness checks the benchmark runs, untimed, after every timed phase.

Each check returns a list of failure messages (empty when it passes), so a
run can report every broken invariant at once.  None of them compares a
served *range* expected error with possible-worlds enumeration: for the
cumulative metrics the served value is the per-item sum of expected errors,
which is a different quantity from the expected error of the range sum.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro import expected_error
from repro.histograms import solve_histogram_dp

RELATIVE_TOLERANCE = 1e-9


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def histogram_errors(builds: Iterable[Tuple[Any, Any, Any]]) -> List[str]:
    """Each ``(data, spec, histogram)`` has the DP's optimal expected error."""
    failures = []
    for data, spec, histogram in builds:
        budget = spec.budgets[0]
        served = expected_error(data, histogram, spec.metric)
        optimum = solve_histogram_dp(data, spec.metric, budget).optimal_error(budget)
        if _relative_gap(served, optimum) > RELATIVE_TOLERANCE:
            failures.append(
                f"histogram {spec.describe()}: expected error {served!r} differs from "
                f"the DP optimum {optimum!r}"
            )
    return failures


def wavelet_beats_thresholding(data, metric, restricted, thresholded) -> List[str]:
    """The restricted-DP wavelet is no worse than SSE thresholding under ``metric``."""
    ours = expected_error(data, restricted, metric)
    baseline = expected_error(data, thresholded, metric)
    if ours > baseline * (1 + RELATIVE_TOLERANCE):
        return [f"restricted wavelet error {ours!r} exceeds the thresholded wavelet's {baseline!r}"]
    return []


def partition_no_better_than_flat(data, partitioned, budget: int) -> List[str]:
    """A partitioned SSE synopsis cannot beat the flat SSE optimum at its budget."""
    ours = expected_error(data, partitioned, "sse")
    flat = solve_histogram_dp(data, "sse", budget).optimal_error(budget)
    if ours < flat * (1 - RELATIVE_TOLERANCE):
        return [f"partitioned SSE error {ours!r} is below the flat optimum {flat!r}"]
    return []


def _columns(synopsis) -> List[np.ndarray]:
    arrays = list(synopsis.column_arrays().values())
    for shard in getattr(synopsis, "shards", ()):
        arrays.extend(_columns(shard))
    return arrays


def reopened_store(directory: Path, entries: Sequence[Tuple[Any, Any, Any]]) -> List[str]:
    """A fresh columnar store over ``directory`` serves every ``(data, spec, synopsis)``
    column-identically, without building anything."""
    from repro.service import SynopsisStore

    try:
        store = SynopsisStore(directory, format="columnar")
        reloaded = [store.get_or_build(data, spec) for data, spec, _ in entries]
    except Exception as exc:  # noqa: BLE001 - any failure to reopen is a failed check
        return [f"reopening the store failed: {type(exc).__name__}: {exc}"]
    failures = []
    if store.stats.builds:
        failures.append(f"reopened store rebuilt {store.stats.builds} synopses")
    for (_, spec, built), loaded in zip(entries, reloaded):
        ours, theirs = _columns(built), _columns(loaded)
        if len(ours) != len(theirs) or not all(
            np.array_equal(a, b) for a, b in zip(ours, theirs)
        ):
            failures.append(f"reopened {spec.describe()} differs from the built synopsis")
    return failures


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def served_bit_identical(
    answers: np.ndarray, errors: np.ndarray, reference_answers: np.ndarray,
    reference_errors: np.ndarray,
) -> List[str]:
    """Served answers and expected errors equal the direct engine's, bit for bit."""
    failures = []
    for name, served, reference in (
        ("answers", answers, reference_answers),
        ("expected errors", errors, reference_errors),
    ):
        mismatched = np.flatnonzero(_bits(served) != _bits(reference))
        if mismatched.size:
            first = int(mismatched[0])
            failures.append(
                f"{mismatched.size} served {name} differ from the direct engine "
                f"(first at {first}: {served[first]!r} vs {reference[first]!r})"
            )
    return failures


def daemon_counters(stats: Mapping[str, Any]) -> List[str]:
    """The daemon reported no internal or protocol errors."""
    return [
        f"daemon reported {stats.get(name)} {name}"
        for name in ("internal_errors", "protocol_errors")
        if stats.get(name) != 0
    ]


def summarise(results: Dict[str, List[str]]) -> List[str]:
    """One ``"<check>: <failure>"`` line per failure across a set of named checks."""
    return [f"{name}: {message}" for name, messages in results.items() for message in messages]
