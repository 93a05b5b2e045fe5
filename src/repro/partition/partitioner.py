"""Domain partitioners: split the ordered domain ``[0, n)`` into shards.

A partition is a tuple of contiguous, non-empty, inclusive item spans that
tile the domain exactly — the same invariant histogram buckets satisfy, one
level up.  Three strategies are provided (the names are pinned in
:data:`repro.core.spec.PARTITION_STRATEGIES`):

``equal_width``
    Shard sizes differ by at most one item (``numpy.array_split``
    convention: the leftover items go to the leading shards).
``equal_mass``
    Cut points balance the cumulative expected frequency mass, so dense
    regions get narrower shards (and therefore relatively more of the
    budget-resolution the allocator can spend on them).
``explicit``
    The caller supplies the cut points (the start index of every shard
    after the first) — for aligning shards with natural domain boundaries
    such as time windows or key ranges.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.spec import PARTITION_STRATEGIES, PartitionSpec
from ..exceptions import SynopsisError
from ..models.base import ProbabilisticModel, normalise_data
from ..models.frequency import FrequencyDistributions

__all__ = ["Partitioner", "shard_spans"]

#: One shard: an inclusive ``(start, end)`` item span.
Span = Tuple[int, int]


def _spans_from_cuts(cuts: Sequence[int], domain_size: int) -> Tuple[Span, ...]:
    """Spans delimited by strictly increasing interior cut points."""
    starts = [0, *(int(c) for c in cuts)]
    ends = [*(int(c) - 1 for c in cuts), domain_size - 1]
    return tuple(zip(starts, ends))


class Partitioner:
    """Splits an ordered domain into ``K`` contiguous non-empty shards.

    Parameters
    ----------
    strategy:
        One of :data:`~repro.core.spec.PARTITION_STRATEGIES`.
    cuts:
        Explicit shard start indices; required by — and only meaningful
        for — the ``"explicit"`` strategy.
    """

    def __init__(self, strategy: str = "equal_width", *, cuts: Optional[Sequence[int]] = None):
        if strategy not in PARTITION_STRATEGIES:
            raise SynopsisError(
                f"unknown partition strategy {strategy!r}; "
                f"expected one of {PARTITION_STRATEGIES}"
            )
        if strategy == "explicit" and cuts is None:
            raise SynopsisError("the explicit strategy needs cuts=(...)")
        if strategy != "explicit" and cuts is not None:
            raise SynopsisError(f"cuts only apply to the explicit strategy, not {strategy!r}")
        self._strategy = strategy
        self._cuts = None if cuts is None else tuple(int(c) for c in cuts)

    @classmethod
    def from_spec(cls, spec: PartitionSpec) -> "Partitioner":
        """The partitioner a :class:`~repro.core.spec.PartitionSpec` describes."""
        return cls(spec.strategy, cuts=spec.cuts)

    @property
    def strategy(self) -> str:
        """The splitting strategy name."""
        return self._strategy

    def __repr__(self) -> str:
        return f"Partitioner({self._strategy!r})"

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def spans(
        self,
        domain_size: int,
        shards: int,
        *,
        masses: Optional[np.ndarray] = None,
    ) -> Tuple[Span, ...]:
        """The ``shards`` inclusive item spans over ``[0, domain_size)``.

        ``masses`` (per-item expected frequency mass) is required by — and
        only read by — the equal-mass strategy.
        """
        if domain_size <= 0:
            raise SynopsisError("cannot partition an empty domain")
        if not 1 <= shards <= domain_size:
            raise SynopsisError(
                f"cannot split a domain of {domain_size} items into {shards} "
                "non-empty shards"
            )
        if self._strategy == "explicit":
            cuts = self._cuts or ()
            if len(cuts) != shards - 1:
                raise SynopsisError(
                    f"{shards} shards need exactly {shards - 1} cuts, got {len(cuts)}"
                )
            if any(c <= 0 for c in cuts) or any(b <= a for a, b in zip(cuts, cuts[1:])):
                raise SynopsisError("cuts must be strictly increasing positive item indices")
            if cuts and cuts[-1] >= domain_size:
                raise SynopsisError(
                    f"shard cut {cuts[-1]} outside the domain [1, {domain_size})"
                )
            return _spans_from_cuts(cuts, domain_size)
        if self._strategy == "equal_mass":
            return self._equal_mass_spans(domain_size, shards, masses)
        return self._equal_width_spans(domain_size, shards)

    @staticmethod
    def _equal_width_spans(domain_size: int, shards: int) -> Tuple[Span, ...]:
        base, leftover = divmod(domain_size, shards)
        sizes = [base + 1] * leftover + [base] * (shards - leftover)
        cuts = np.cumsum(sizes[:-1])
        return _spans_from_cuts(cuts.tolist(), domain_size)

    @staticmethod
    def _equal_mass_spans(
        domain_size: int, shards: int, masses: Optional[np.ndarray]
    ) -> Tuple[Span, ...]:
        if masses is None:
            raise SynopsisError(
                "the equal_mass strategy needs per-item masses "
                "(e.g. the data's expected frequencies)"
            )
        weights = np.abs(np.asarray(masses, dtype=float))
        if weights.ndim != 1 or weights.size != domain_size:
            raise SynopsisError(
                f"masses must be a length-{domain_size} vector, got shape {weights.shape}"
            )
        total = float(weights.sum())
        if total <= 0:
            # Massless data has no density signal; equal width is the only
            # principled tie-break (and keeps the result deterministic).
            return Partitioner._equal_width_spans(domain_size, shards)
        cumulative = np.cumsum(weights)
        targets = total * np.arange(1, shards) / shards
        cuts = np.searchsorted(cumulative, targets, side="left") + 1
        # Mass can concentrate on few items; clamp every cut into the window
        # that keeps all shards non-empty (cut k needs k items to its left
        # and shards-1-k to its right), then restore strict monotonicity —
        # several raw cuts can collide on one heavy item.  Subtracting the
        # index turns "strictly increasing" into "non-decreasing", so a
        # running maximum repairs collisions without leaving the window
        # (every cut's slack ``cut_k - k`` is bounded by the shared
        # ``domain_size - shards``).
        indices = np.arange(1, shards)
        cuts = np.clip(cuts, indices, domain_size - (shards - indices))
        cuts = np.maximum.accumulate(cuts - indices) + indices
        return _spans_from_cuts(cuts.tolist(), domain_size)


def shard_spans(
    data: Union[ProbabilisticModel, FrequencyDistributions],
    spec: PartitionSpec,
) -> Tuple[Span, ...]:
    """The shard spans a partition spec induces over a dataset.

    Convenience composition of :meth:`Partitioner.from_spec` and
    :meth:`Partitioner.spans`, feeding the equal-mass strategy the data's
    expected frequencies.
    """
    distributions = normalise_data(data).to_frequency_distributions()
    masses = distributions.expectations() if spec.strategy == "equal_mass" else None
    partitioner = Partitioner.from_spec(spec)
    return partitioner.spans(distributions.domain_size, spec.shards, masses=masses)
