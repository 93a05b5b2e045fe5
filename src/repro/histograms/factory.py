"""Factory mapping an error metric to its bucket-cost oracle and DP solver.

Keeping the mapping in one place means the top-level builders, the baselines
and the experiment harness all agree on which oracle implements which metric
(and on how the SSE variant and sanity constant are threaded through).
:func:`solve_histogram_dp` is the one-call composition — oracle construction
plus a kernel-registry dispatch of the dynamic program — that the unified
:func:`repro.core.builders.build_synopsis` entry point and the experiment
runners are built on.
"""

from __future__ import annotations

from typing import Union

from typing import Sequence

import numpy as np

from ..core.metrics import ErrorMetric, MetricSpec
from ..core.workload import QueryWorkload
from ..exceptions import SynopsisError
from ..models.base import ProbabilisticModel, normalise_data
from ..models.frequency import FrequencyDistributions
from ..models.tuple_pdf import TuplePdfModel
from ..telemetry import span
from .cost_base import BucketCostFunction
from .kernels import AUTO_KERNEL, DynamicProgramResult, resolve_kernel
from .max_error import MaxAbsoluteCost, MaxAbsoluteRelativeCost
from .sae import SaeCost
from .sare import SareCost
from .sse import SseCost
from .ssre import SsreCost

__all__ = ["make_cost_function", "solve_histogram_dp"]


def make_cost_function(
    data: Union[ProbabilisticModel, FrequencyDistributions],
    metric: Union[str, ErrorMetric, MetricSpec],
    *,
    sanity: float = 1.0,
    sse_variant: str = "fixed",
    workload: Union[QueryWorkload, Sequence[float], np.ndarray, None] = None,
) -> BucketCostFunction:
    """Build the bucket-cost oracle for ``metric`` over ``data``.

    Parameters
    ----------
    data:
        Either a probabilistic model (basic / tuple-pdf / value-pdf) or
        pre-computed per-item :class:`FrequencyDistributions`.
    metric:
        The error objective; a :class:`MetricSpec` may carry its own sanity
        constant, otherwise ``sanity`` is used for the relative metrics.
    sse_variant:
        ``"fixed"`` (Section 2.3 objective, default) or ``"paper"``
        (Eq. 5 of the paper); only meaningful for ``ErrorMetric.SSE``.
    workload:
        Optional per-item query weights (a :class:`QueryWorkload` or plain
        weight sequence).  ``None`` gives the paper's uniform-workload
        objectives; with weights the oracle optimises the workload-weighted
        objective (see :mod:`repro.core.workload`).
    """
    spec = metric if isinstance(metric, MetricSpec) else MetricSpec.of(metric, sanity)

    normalised = normalise_data(data)
    distributions = normalised.to_frequency_distributions()
    coerced = QueryWorkload.coerce(workload, distributions.domain_size)
    weights = None if coerced is None else coerced.weights

    metric_enum = spec.metric
    if metric_enum is ErrorMetric.SSE:
        paper = sse_variant == "paper" and isinstance(normalised, TuplePdfModel)
        tuple_model = normalised if paper else None
        return SseCost(distributions, variant=sse_variant, model=tuple_model, workload=weights)
    if metric_enum is ErrorMetric.SSRE:
        return SsreCost(distributions, sanity=spec.sanity, workload=weights)
    if metric_enum is ErrorMetric.SAE:
        return SaeCost(distributions, workload=weights)
    if metric_enum is ErrorMetric.SARE:
        return SareCost(distributions, sanity=spec.sanity, workload=weights)
    if metric_enum is ErrorMetric.MAE:
        return MaxAbsoluteCost(distributions, workload=weights)
    if metric_enum is ErrorMetric.MARE:
        return MaxAbsoluteRelativeCost(distributions, sanity=spec.sanity, workload=weights)
    raise SynopsisError(f"no histogram cost oracle for metric {metric_enum!r}")  # pragma: no cover


def solve_histogram_dp(
    data: Union[ProbabilisticModel, FrequencyDistributions],
    metric: Union[str, ErrorMetric, MetricSpec],
    max_buckets: int,
    *,
    kernel: str = AUTO_KERNEL,
    sanity: float = 1.0,
    sse_variant: str = "fixed",
    workload: Union[QueryWorkload, Sequence[float], np.ndarray, None] = None,
) -> DynamicProgramResult:
    """Build the cost oracle for ``metric`` and run the histogram DP on it.

    The kernel registry picks the solver (``kernel="auto"`` selects the
    fastest one the oracle certifies; explicit names fall back when
    unsuitable).  Returns the full DP table, from which the optimal
    histogram for any budget up to ``max_buckets`` can be read off.
    """
    with span("build.cost_oracle", metric=str(metric)):
        cost_fn = make_cost_function(
            data, metric, sanity=sanity, sse_variant=sse_variant, workload=workload
        )
    with span("build.kernel_resolve", requested=kernel) as resolve_trace:
        solver = resolve_kernel(kernel, cost_fn)
        resolve_trace.set(kernel=solver.name)
    with span("build.dp", kernel=solver.name, buckets=max_buckets, n=cost_fn.domain_size):
        return solver.solve(cost_fn, max_buckets)
