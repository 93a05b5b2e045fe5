"""Top-level synopsis builders: the package's main entry points.

:func:`build` is the typed front door: it takes the data and a declarative
:class:`~repro.core.spec.SynopsisSpec` and returns the described synopsis
(or, for a budget-sweep spec, one synopsis per budget — served by a single
DP run).  Construction is dispatched through a per-kind builder registry, so
a new synopsis kind plugs in with one :func:`register_builder` call.

:func:`build_synopsis`, :func:`build_histogram` and :func:`build_wavelet`
are thin keyword-argument shims over :func:`build`, kept so existing callers
(and quick interactive use) keep working unchanged; they simply assemble the
spec and delegate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Union

from ..exceptions import SynopsisError
from ..models.base import DataLike, NormalisedData, normalise_data
from ..telemetry import span
from .histogram import Histogram
from .metrics import DEFAULT_SANITY, ErrorMetric, MetricSpec
from .spec import DEFAULT_EPSILON, DEFAULT_KERNEL, DEFAULT_SSE_VARIANT, SynopsisSpec
from .synopsis import Synopsis
from .wavelet import WaveletSynopsis

__all__ = [
    "build",
    "build_synopsis",
    "build_histogram",
    "build_wavelet",
    "register_builder",
]

#: A kind builder: (normalised data, spec) -> one synopsis per spec budget.
KindBuilder = Callable[[NormalisedData, SynopsisSpec], List[Synopsis]]

_BUILDERS: Dict[str, KindBuilder] = {}


def register_builder(kind: str):
    """Register the construction function for one synopsis kind.

    The function receives the normalised data and the (validated) spec and
    must return one synopsis per entry of ``spec.budgets``, in order.
    """

    def decorate(fn: KindBuilder) -> KindBuilder:
        _BUILDERS[kind] = fn
        return fn

    return decorate


def build(data: DataLike, spec: SynopsisSpec) -> Union[Synopsis, List[Synopsis]]:
    """Build the synopsis (or budget sweep of synopses) a spec describes.

    Parameters
    ----------
    data:
        A probabilistic model (basic / tuple-pdf / value-pdf), precomputed
        :class:`FrequencyDistributions`, or a plain deterministic frequency
        vector.
    spec:
        The declarative build description; see :class:`SynopsisSpec`.  The
        spec was validated at construction, so only data-dependent checks
        (workload shape, budget vs. domain size) happen here.

    Returns one :class:`~repro.core.synopsis.Synopsis` for a scalar-budget
    spec, a list (one per budget, in spec order) for a sweep spec.
    """
    if not isinstance(spec, SynopsisSpec):
        raise SynopsisError(
            f"build expects a SynopsisSpec, got {type(spec).__name__}; "
            "use build_synopsis(...) for the keyword form"
        )
    if spec.kind not in _BUILDERS:
        # Builders outside repro.core register at import; the partitioned
        # builder is the one built-in living elsewhere (lazy to avoid cycles).
        from ..partition import builder as _partition_builder  # noqa: F401
    builder = _BUILDERS.get(spec.kind)
    if builder is None:
        raise SynopsisError(f"no builder registered for synopsis kind {spec.kind!r}")
    normalised = normalise_data(data)
    spec.validate_for_domain(normalised.domain_size)
    with span(
        "build.synopsis",
        kind=spec.kind,
        n=normalised.domain_size,
        budget=max(spec.budgets),
    ):
        results = builder(normalised, spec)
    return list(results) if spec.is_sweep else results[0]


@register_builder("histogram")
def _build_histograms(data: NormalisedData, spec: SynopsisSpec) -> List[Synopsis]:
    from ..histograms.approx import approximate_histogram
    from ..histograms.factory import make_cost_function, solve_histogram_dp

    budgets = spec.budgets
    if spec.method == "approximate":
        cost_fn = make_cost_function(
            data, spec.metric, sse_variant=spec.sse_variant, workload=spec.workload
        )
        return [approximate_histogram(cost_fn, b, spec.epsilon) for b in budgets]
    dp = solve_histogram_dp(
        data,
        spec.metric,
        max(budgets),
        kernel=spec.kernel,
        sse_variant=spec.sse_variant,
        workload=spec.workload,
    )
    return [dp.histogram(min(b, dp.max_buckets)) for b in budgets]


@register_builder("wavelet")
def _build_wavelets(data: NormalisedData, spec: SynopsisSpec) -> List[Synopsis]:
    """Wavelet synopses: SSE thresholding or the restricted-tree DP.

    For the SSE metric this is the ``O(n)`` optimal thresholding of the
    expected coefficients (Theorem 7).  For the other metrics the restricted
    coefficient-tree dynamic program is used (Theorem 8); like the histogram
    path, a budget sweep is served by a single tabulation for the largest
    budget.  With a workload the greedy SSE argument no longer applies, so
    every metric is routed through the restricted DP with workload-weighted
    leaf errors.
    """
    from ..wavelets.nonsse import restricted_wavelet_sweep
    from ..wavelets.sse import sse_optimal_wavelet

    budgets = spec.budgets
    if spec.metric.metric is ErrorMetric.SSE and spec.workload is None:
        return [sse_optimal_wavelet(data, b) for b in budgets]
    return restricted_wavelet_sweep(data, list(budgets), spec.metric, workload=spec.workload)


# ----------------------------------------------------------------------
# Keyword-argument shims (the pre-spec API surface, kept stable)
# ----------------------------------------------------------------------
def build_synopsis(
    data: DataLike,
    budget: Union[int, Sequence[int]],
    *,
    synopsis: str = "histogram",
    metric: Union[str, ErrorMetric, MetricSpec] = ErrorMetric.SSE,
    sanity: float = DEFAULT_SANITY,
    method: str = "optimal",
    kernel: str = DEFAULT_KERNEL,
    epsilon: float = DEFAULT_EPSILON,
    sse_variant: str = DEFAULT_SSE_VARIANT,
    workload=None,
) -> Union[Synopsis, List[Synopsis]]:
    """Build a histogram or wavelet synopsis of probabilistic data.

    Keyword shim over :func:`build`: the arguments are exactly the fields of
    :class:`SynopsisSpec` (see there for semantics); the spec is assembled
    and validated here, so malformed configurations fail before any data is
    touched.  A sequence of budgets returns one synopsis per budget, with
    the whole sweep served by a single DP run where the kind supports it.
    """
    spec = SynopsisSpec(
        kind=synopsis,
        budget=budget,
        metric=metric,
        sanity=sanity,
        method=method,
        kernel=kernel,
        epsilon=epsilon,
        sse_variant=sse_variant,
        workload=workload,
    )
    return build(data, spec)


def build_histogram(
    data: DataLike,
    buckets: Union[int, Sequence[int]],
    metric: Union[str, ErrorMetric, MetricSpec] = ErrorMetric.SSE,
    *,
    sanity: float = DEFAULT_SANITY,
    method: str = "optimal",
    kernel: str = DEFAULT_KERNEL,
    epsilon: float = DEFAULT_EPSILON,
    sse_variant: str = DEFAULT_SSE_VARIANT,
    workload=None,
) -> Histogram:
    """Build a ``buckets``-bucket histogram synopsis of probabilistic data.

    Thin wrapper over :func:`build_synopsis` with ``synopsis="histogram"``;
    see there for the parameters.
    """
    return build_synopsis(
        data,
        buckets,
        synopsis="histogram",
        metric=metric,
        sanity=sanity,
        method=method,
        kernel=kernel,
        epsilon=epsilon,
        sse_variant=sse_variant,
        workload=workload,
    )


def build_wavelet(
    data: DataLike,
    coefficients: Union[int, Sequence[int]],
    metric: Union[str, ErrorMetric, MetricSpec] = ErrorMetric.SSE,
    *,
    sanity: float = DEFAULT_SANITY,
    workload=None,
) -> WaveletSynopsis:
    """Build a ``coefficients``-term Haar wavelet synopsis of probabilistic data.

    Thin wrapper over :func:`build_synopsis` with ``synopsis="wavelet"``;
    see there for the parameters.
    """
    return build_synopsis(
        data,
        coefficients,
        synopsis="wavelet",
        metric=metric,
        sanity=sanity,
        workload=workload,
    )
