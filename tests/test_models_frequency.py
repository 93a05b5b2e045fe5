"""Unit tests for FrequencyDistributions (dense per-item marginal pdfs)."""

import numpy as np
import pytest

from repro import DomainError, ModelValidationError
from repro.exceptions import EvaluationError, SynopsisError
from repro.models import normalise_data
from repro.models.frequency import FrequencyDistributions
from repro.models.values import ValueGrid


def simple_distributions() -> FrequencyDistributions:
    """Two items: {0: 0.5, 2: 0.5} and {1: 1.0}."""
    return FrequencyDistributions.from_pairs([[(2.0, 0.5)], [(1.0, 1.0)]])


class TestConstruction:
    def test_from_pairs_adds_implicit_zero_mass(self):
        dist = FrequencyDistributions.from_pairs([[(2.0, 0.25)]])
        marginal = dist.marginal(0)
        assert marginal[0.0] == pytest.approx(0.75)
        assert marginal[2.0] == pytest.approx(0.25)

    def test_from_pairs_merges_duplicate_values(self):
        dist = FrequencyDistributions.from_pairs([[(1.0, 0.25), (1.0, 0.25)]])
        assert dist.marginal(0)[1.0] == pytest.approx(0.5)

    def test_from_pairs_rejects_probability_above_one(self):
        with pytest.raises(ModelValidationError):
            FrequencyDistributions.from_pairs([[(1.0, 0.8), (2.0, 0.5)]])

    def test_from_pairs_rejects_negative_probability(self):
        with pytest.raises(ModelValidationError):
            FrequencyDistributions.from_pairs([[(1.0, -0.1)]])

    def test_rows_must_sum_to_one(self):
        grid = ValueGrid([1.0])
        with pytest.raises(ModelValidationError):
            FrequencyDistributions(grid, np.array([[0.2, 0.2]]))

    def test_rejects_negative_entries(self):
        grid = ValueGrid([1.0])
        with pytest.raises(ModelValidationError):
            FrequencyDistributions(grid, np.array([[1.2, -0.2]]))

    def test_rejects_wrong_shape(self):
        grid = ValueGrid([1.0])
        with pytest.raises(ModelValidationError):
            FrequencyDistributions(grid, np.ones(3))
        with pytest.raises(ModelValidationError):
            FrequencyDistributions(grid, np.ones((1, 3)))

    def test_deterministic_constructor(self):
        dist = FrequencyDistributions.deterministic([3.0, 0.0, 1.0])
        assert np.allclose(dist.expectations(), [3.0, 0.0, 1.0])
        assert np.allclose(dist.variances(), 0.0)

    def test_probability_matrix_read_only(self):
        dist = simple_distributions()
        with pytest.raises(ValueError):
            dist.probabilities[0, 0] = 1.0


class TestMoments:
    def test_expectations(self):
        dist = simple_distributions()
        assert np.allclose(dist.expectations(), [1.0, 1.0])

    def test_second_moments_and_variances(self):
        dist = simple_distributions()
        assert np.allclose(dist.second_moments(), [2.0, 1.0])
        assert np.allclose(dist.variances(), [1.0, 0.0])

    def test_cdf_and_tail(self):
        dist = simple_distributions()
        cdf = dist.cdf_matrix()
        tail = dist.tail_matrix()
        assert np.allclose(cdf[:, -1], 1.0)
        assert np.allclose(cdf + tail, 1.0)
        # Item 0: Pr[g <= 0] = 0.5, Pr[g <= 1] = 0.5, Pr[g <= 2] = 1.0
        assert np.allclose(cdf[0], [0.5, 0.5, 1.0])

    def test_expected_point_error_squared(self):
        dist = simple_distributions()
        # Item 0: 0 w.p. 0.5 and 2 w.p. 0.5; estimate 1 -> squared error always 1.
        assert dist.expected_point_error(0, 1.0, squared=True) == pytest.approx(1.0)

    def test_expected_point_error_relative(self):
        dist = simple_distributions()
        value = dist.expected_point_error(0, 1.0, squared=False, sanity=1.0)
        # |0-1|/max(1,0) * 0.5 + |2-1|/max(1,2) * 0.5 = 0.5 + 0.25
        assert value == pytest.approx(0.75)


class TestStructure:
    def test_domain_size_and_len(self):
        dist = simple_distributions()
        assert dist.domain_size == 2
        assert len(dist) == 2

    def test_marginal_bounds_check(self):
        dist = simple_distributions()
        with pytest.raises(DomainError):
            dist.marginal(5)

    def test_restrict(self):
        dist = FrequencyDistributions.deterministic([1.0, 2.0, 3.0, 4.0])
        sub = dist.restrict(1, 2)
        assert np.allclose(sub.expectations(), [2.0, 3.0])

    def test_restrict_empty_range_raises(self):
        dist = simple_distributions()
        with pytest.raises(DomainError):
            dist.restrict(1, 0)

    def test_repr(self):
        assert "n=2" in repr(simple_distributions())


class TestNormaliseData:
    """The one input rule shared by building and evaluation."""

    def test_models_and_distributions_pass_through(self):
        from tests.conftest import small_tuple_pdf

        model = small_tuple_pdf()
        dist = simple_distributions()
        assert normalise_data(model) is model
        assert normalise_data(dist) is dist
        assert dist.to_frequency_distributions() is dist

    def test_vectors_become_deterministic_distributions(self):
        normalised = normalise_data([3.0, 0.0, 5.0])
        assert isinstance(normalised, FrequencyDistributions)
        assert np.array_equal(normalised.expectations(), [3.0, 0.0, 5.0])
        assert np.array_equal(normalised.variances(), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [[], [[1.0, 2.0]], "not a model", None])
    def test_anything_else_raises_the_callers_error_type(self, bad):
        with pytest.raises(SynopsisError):
            normalise_data(bad)
        with pytest.raises(EvaluationError):
            normalise_data(bad, error=EvaluationError)

    def test_evaluation_accepts_the_vectors_build_accepts(self):
        from repro.core.builders import build_histogram
        from repro.evaluation import expected_error

        frequencies = [4.0, 4.0, 1.0, 9.0]
        histogram = build_histogram(frequencies, 2, metric="sse")
        assert expected_error(frequencies, histogram, "sse") == expected_error(
            FrequencyDistributions.deterministic(frequencies), histogram, "sse"
        )
