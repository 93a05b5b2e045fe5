"""Abstract interface shared by all probabilistic data models.

The paper (Section 2.1) works with three concrete uncertainty models — the
*basic* model, the *tuple pdf* model and the *value pdf* model — all of which
describe a probability distribution over "possible worlds", i.e. ordinary
deterministic frequency vectors over the ordered domain ``[0, n)``.

:class:`ProbabilisticModel` captures the operations the synopsis algorithms
need from any of them:

* the per-item marginal frequency distributions (as a
  :class:`~repro.models.frequency.FrequencyDistributions`), which drive every
  histogram metric except the tuple-correlated SSE term;
* expected frequencies and variances (used by the wavelet algorithms and the
  expectation baseline);
* possible-world *sampling* (used by the sampled-world baseline) and, for
  small inputs, exhaustive possible-world *enumeration* (used as a ground
  truth oracle by the test-suite and the evaluation module).
"""

from __future__ import annotations

import abc
from typing import Iterator, Optional, Sequence, Type, Union

import numpy as np

from ..exceptions import SynopsisError, WorldEnumerationError
from .frequency import FrequencyDistributions
from .worlds import PossibleWorld

__all__ = ["ProbabilisticModel", "DEFAULT_MAX_WORLDS", "DataLike", "NormalisedData", "normalise_data"]

#: Default cap on the number of possible worlds exhaustive enumeration will
#: produce before refusing (the space is exponential in the input size).
DEFAULT_MAX_WORLDS = 1_000_000


class ProbabilisticModel(abc.ABC):
    """Common interface of the basic, tuple-pdf and value-pdf models."""

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def domain_size(self) -> int:
        """Size ``n`` of the ordered item domain ``[0, n)``."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Total number ``m`` of (item/value, probability) pairs in the input."""

    # ------------------------------------------------------------------
    # Marginal information
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def to_frequency_distributions(self) -> FrequencyDistributions:
        """Per-item marginal frequency pdfs (the *induced value pdf*).

        For the value-pdf model this is a direct re-encoding of the input;
        for the basic and tuple-pdf models the marginal of item ``i`` is a
        Poisson-binomial distribution over the tuples that may produce ``i``
        (Section 2.1: "it is straightforward to build the induced value pdf
        for each value inductively").
        """

    def expected_frequencies(self) -> np.ndarray:
        """``E[g_i]`` for every item of the domain."""
        return self.to_frequency_distributions().expectations()

    def frequency_variances(self) -> np.ndarray:
        """Marginal ``Var[g_i]`` for every item of the domain."""
        return self.to_frequency_distributions().variances()

    # ------------------------------------------------------------------
    # Possible worlds
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def world_count(self) -> int:
        """Number of distinct world configurations enumeration would yield."""

    @abc.abstractmethod
    def iter_worlds(self) -> Iterator[PossibleWorld]:
        """Yield every possible world with its probability.

        Worlds are yielded as :class:`PossibleWorld` instances whose
        ``frequencies`` array has length :attr:`domain_size`.  Worlds that
        arise from different input configurations but share the same
        frequency vector are *not* merged (their probabilities simply add up
        across yields); callers that need merged worlds can aggregate by the
        frequency tuple.
        """

    def enumerate_worlds(self, max_worlds: int = DEFAULT_MAX_WORLDS) -> list[PossibleWorld]:
        """Materialise :meth:`iter_worlds`, refusing if it would be too large."""
        count = self.world_count()
        if count > max_worlds:
            raise WorldEnumerationError(
                f"model induces {count} world configurations, above the cap of {max_worlds}; "
                "exhaustive enumeration is only intended for small inputs"
            )
        return list(self.iter_worlds())

    @abc.abstractmethod
    def sample_world(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw one possible world; returns its frequency vector ``g``.

        This is the primitive behind the paper's "sampled world" baseline.
        """

    def sample_worlds(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw ``count`` independent worlds as a ``(count, n)`` array."""
        rng = np.random.default_rng() if rng is None else rng
        return np.stack([self.sample_world(rng) for _ in range(count)])

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def expectation_over_worlds(self, function) -> float:
        """``E_W[f]`` by exhaustive enumeration (Definition 4, small inputs only)."""
        total = 0.0
        for world in self.enumerate_worlds():
            total += world.probability * float(function(world.frequencies))
        return total

    @staticmethod
    def _normalise_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
        return np.random.default_rng() if rng is None else rng

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.domain_size}, m={self.size})"


#: Everything the library accepts as data, and what :func:`normalise_data`
#: turns it into.
DataLike = Union[ProbabilisticModel, FrequencyDistributions, np.ndarray, Sequence[float]]
NormalisedData = Union[ProbabilisticModel, FrequencyDistributions]


def normalise_data(
    data: DataLike,
    *,
    error: Type[Exception] = SynopsisError,
) -> NormalisedData:
    """The library's one input rule, shared by building and evaluation.

    A model or a :class:`FrequencyDistributions` passes through unchanged
    (builders that need the model itself — the SSE ``paper`` variant reads
    the tuple-pdf — still get it); a non-empty 1-D frequency vector becomes
    :meth:`FrequencyDistributions.deterministic`.  Anything else raises
    ``error``, so each caller keeps its own exception type.  Either result
    answers ``to_frequency_distributions()``.
    """
    if isinstance(data, (ProbabilisticModel, FrequencyDistributions)):
        return data
    try:
        array = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        array = np.empty(0)  # not numeric: rejected below like an empty vector
    if array.ndim != 1 or array.size == 0:
        raise error(
            "expected a probabilistic model, FrequencyDistributions or a non-empty 1-D "
            f"frequency vector, got {type(data).__name__}"
        )
    return FrequencyDistributions.deterministic(array)
