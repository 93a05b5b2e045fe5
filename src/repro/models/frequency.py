"""Canonical per-item frequency distributions.

Every probabilistic data model in this package (basic, tuple pdf, value pdf)
induces, for each item ``i`` of the ordered domain ``[0, n)``, a marginal
discrete distribution over the frequency ``g_i`` of that item.  The
histogram and wavelet algorithms of the paper operate on exactly this
information (plus, for the tuple-pdf sum-squared-error case, some extra
covariance structure handled separately in :mod:`repro.histograms.sse`).

:class:`FrequencyDistributions` stores the marginals densely as an
``(n, |V|)`` probability matrix over a shared :class:`~repro.models.values.ValueGrid`.
The dense layout makes all of the prefix-array precomputations of Section 3
of the paper straightforward, vectorised NumPy operations.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import DomainError, ModelValidationError
from .values import ValueGrid

__all__ = ["FrequencyDistributions"]

# Row sums may drift from 1 by accumulated floating point error; anything
# beyond this is treated as an invalid distribution.
_PROB_TOLERANCE = 1e-8


class FrequencyDistributions:
    """Dense per-item marginal frequency distributions.

    Parameters
    ----------
    grid:
        The shared :class:`ValueGrid` of candidate frequency values ``V``.
    probabilities:
        Array of shape ``(n, |V|)`` where entry ``(i, j)`` is
        ``Pr[g_i = grid[j]]``.  Rows must be non-negative and sum to one
        (an implicit remainder is *not* added here; use :meth:`from_pairs`
        to build from sparse per-item pairs with implicit zero mass).
    copy:
        Whether to copy the probability matrix (default ``True``).
    """

    # __weakref__ keeps instances weak-referenceable so the serving store's
    # fingerprint memo can cache their digests (see repro.service.store).
    __slots__ = ("_grid", "_probs", "__weakref__")

    def __init__(self, grid: ValueGrid, probabilities: np.ndarray, *, copy: bool = True):
        probs = np.array(probabilities, dtype=float, copy=copy)
        if probs.ndim != 2:
            raise ModelValidationError("probabilities must be a 2-D array (items x values)")
        if probs.shape[1] != len(grid):
            raise ModelValidationError(
                f"probability matrix has {probs.shape[1]} columns but the value grid has {len(grid)} entries"
            )
        if probs.size and probs.min() < -_PROB_TOLERANCE:
            raise ModelValidationError("probabilities must be non-negative")
        np.clip(probs, 0.0, None, out=probs)
        row_sums = probs.sum(axis=1)
        if probs.size and np.any(np.abs(row_sums - 1.0) > 1e-6):
            bad = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ModelValidationError(
                f"item {bad} has total probability {row_sums[bad]:.6f}; rows must sum to 1"
            )
        # Renormalise tiny drift so downstream cumulative sums stay consistent.
        if probs.size:
            probs /= row_sums[:, None]
        probs.setflags(write=False)
        self._grid = grid
        self._probs = probs

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        per_item_pairs: Sequence[Sequence[Tuple[float, float]]],
        *,
        grid: ValueGrid | None = None,
    ) -> "FrequencyDistributions":
        """Build from sparse per-item ``(value, probability)`` pairs.

        Probabilities for an item may sum to less than one; the remainder is
        assigned to frequency zero, mirroring the paper's convention for the
        value-pdf model (Definition 3).
        """
        n = len(per_item_pairs)
        if grid is None:
            values: List[float] = [0.0]
            for pairs in per_item_pairs:
                values.extend(float(v) for v, _ in pairs)
            grid = ValueGrid(values)
        probs = np.zeros((n, len(grid)), dtype=float)
        zero_idx = grid.index_of(0.0)
        for i, pairs in enumerate(per_item_pairs):
            total = 0.0
            for value, prob in pairs:
                prob = float(prob)
                if prob < -_PROB_TOLERANCE:
                    raise ModelValidationError(f"item {i}: negative probability {prob}")
                prob = max(prob, 0.0)
                probs[i, grid.index_of(float(value))] += prob
                total += prob
            if total > 1.0 + 1e-6:
                raise ModelValidationError(
                    f"item {i}: probabilities sum to {total:.6f} > 1"
                )
            probs[i, zero_idx] += max(0.0, 1.0 - total)
        return cls(grid, probs, copy=False)

    @classmethod
    def deterministic(cls, frequencies: Sequence[float]) -> "FrequencyDistributions":
        """Distributions describing a deterministic frequency vector.

        Deterministic data is the degenerate case where each item attains a
        single frequency with probability one; the paper uses this view to
        run the probabilistic algorithms on certain data (Section 5).
        """
        freq = np.asarray(frequencies, dtype=float)
        grid = ValueGrid(freq)
        probs = np.zeros((freq.size, len(grid)), dtype=float)
        for i, value in enumerate(freq):
            probs[i, grid.index_of(float(value))] = 1.0
        return cls(grid, probs, copy=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def grid(self) -> ValueGrid:
        """The shared value grid ``V``."""
        return self._grid

    @property
    def values(self) -> np.ndarray:
        """Shorthand for ``self.grid.values``."""
        return self._grid.values

    @property
    def probabilities(self) -> np.ndarray:
        """The read-only ``(n, |V|)`` probability matrix."""
        return self._probs

    @property
    def domain_size(self) -> int:
        """Number of items ``n`` in the ordered domain."""
        return int(self._probs.shape[0])

    def __len__(self) -> int:
        return self.domain_size

    def __repr__(self) -> str:
        return (
            f"FrequencyDistributions(n={self.domain_size}, "
            f"values={len(self._grid)})"
        )

    def to_frequency_distributions(self) -> "FrequencyDistributions":
        """``self``: the marginals are already materialised (model protocol)."""
        return self

    def marginal(self, item: int) -> Dict[float, float]:
        """Return ``{value: probability}`` for one item (non-zero entries only)."""
        self._check_item(item)
        row = self._probs[item]
        return {float(v): float(p) for v, p in zip(self.values, row) if p > 0.0}

    def restrict(self, start: int, end: int) -> "FrequencyDistributions":
        """Distributions for the contiguous item range ``[start, end]`` (inclusive)."""
        self._check_item(start)
        self._check_item(end)
        if end < start:
            raise DomainError(f"empty item range [{start}, {end}]")
        return FrequencyDistributions(self._grid, self._probs[start : end + 1], copy=True)

    # ------------------------------------------------------------------
    # Moments (vectorised)
    # ------------------------------------------------------------------
    def expectations(self) -> np.ndarray:
        """``E[g_i]`` for every item, shape ``(n,)``."""
        return self._probs @ self.values

    def second_moments(self) -> np.ndarray:
        """``E[g_i^2]`` for every item, shape ``(n,)``."""
        return self._probs @ (self.values ** 2)

    def variances(self) -> np.ndarray:
        """``Var[g_i]`` for every item, shape ``(n,)``."""
        expectations = self.expectations()
        return np.maximum(self.second_moments() - expectations ** 2, 0.0)

    def cdf_matrix(self) -> np.ndarray:
        """``Pr[g_i <= v_j]`` as an ``(n, |V|)`` matrix."""
        return np.cumsum(self._probs, axis=1)

    def tail_matrix(self) -> np.ndarray:
        """``Pr[g_i > v_j]`` as an ``(n, |V|)`` matrix."""
        return np.maximum(1.0 - self.cdf_matrix(), 0.0)

    def expected_point_error(self, item: int, estimate: float, *, squared: bool, sanity: float | None = None) -> float:
        """``E[err(g_i, estimate)]`` for a single item.

        ``squared`` selects squared versus absolute error; ``sanity`` (the
        constant ``c``) switches on the relative-error normalisation
        ``1 / max(c, |g_i|)`` (squared in the squared case) used by the
        SSRE/SARE/MARE metrics.
        """
        self._check_item(item)
        row = self._probs[item]
        diffs = self.values - float(estimate)
        err = diffs ** 2 if squared else np.abs(diffs)
        if sanity is not None:
            denom = np.maximum(float(sanity), np.abs(self.values))
            err = err / (denom ** 2 if squared else denom)
        return float(row @ err)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_item(self, item: int) -> None:
        if not 0 <= item < self.domain_size:
            raise DomainError(
                f"item {item} outside the ordered domain [0, {self.domain_size})"
            )
