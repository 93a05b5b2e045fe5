"""Probabilistic data models (Section 2.1 of the paper).

This subpackage provides the three uncertainty models the paper works with —
:class:`BasicModel`, :class:`TuplePdfModel` and :class:`ValuePdfModel` — plus
the shared substrate they are built on:

* :class:`ValueGrid` — the ordered set ``V`` of candidate frequency values;
* :class:`FrequencyDistributions` — dense per-item marginal frequency pdfs
  (the *induced value pdf*), which every synopsis algorithm consumes;
* :class:`PossibleWorld` and the enumeration / sampling machinery used by the
  baselines and the ground-truth evaluation oracle.
"""

from .base import DEFAULT_MAX_WORLDS, ProbabilisticModel, normalise_data
from .basic import BasicModel
from .frequency import FrequencyDistributions
from .induced import induced_distributions_from_bernoullis, poisson_binomial_pmf
from .tuple_pdf import ProbabilisticTuple, TuplePdfModel
from .value_pdf import ValuePdfModel
from .values import ValueGrid
from .worlds import PossibleWorld, merge_worlds, worlds_expectation, worlds_total_probability

__all__ = [
    "DEFAULT_MAX_WORLDS",
    "ProbabilisticModel",
    "normalise_data",
    "BasicModel",
    "TuplePdfModel",
    "ProbabilisticTuple",
    "ValuePdfModel",
    "ValueGrid",
    "FrequencyDistributions",
    "PossibleWorld",
    "merge_worlds",
    "worlds_expectation",
    "worlds_total_probability",
    "poisson_binomial_pmf",
    "induced_distributions_from_bernoullis",
]
