"""Tests for the shared helpers in repro._util."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExplosionError
from repro._util import (
    close,
    harmonic,
    harmonic_fraction,
    leq,
    lt,
    normalize_distribution,
    product_size,
    validate_distribution,
)


class TestHarmonic:
    def test_base_cases(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)
        with pytest.raises(ValueError):
            harmonic_fraction(-2)

    def test_matches_fraction(self):
        for n in range(12):
            assert harmonic(n) == pytest.approx(float(harmonic_fraction(n)))

    def test_fraction_exact(self):
        assert harmonic_fraction(3) == Fraction(11, 6)

    def test_log_growth(self):
        # ln(n) < H(n) <= ln(n) + 1.
        for n in (10, 100, 1000):
            assert math.log(n) < harmonic(n) <= math.log(n) + 1.0


class TestComparisons:
    def test_close(self):
        assert close(1.0, 1.0 + 1e-12)
        assert not close(1.0, 1.1)
        assert close(math.inf, math.inf)
        assert not close(math.inf, 1.0)

    def test_leq(self):
        assert leq(1.0, 1.0)
        assert leq(1.0 + 1e-12, 1.0)
        assert not leq(1.1, 1.0)
        assert leq(1.0, math.inf)
        assert leq(math.inf, math.inf)

    def test_lt(self):
        assert lt(1.0, 1.1)
        assert not lt(1.0, 1.0 + 1e-12)
        assert lt(1.0, math.inf)
        assert not lt(math.inf, math.inf)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_trichotomy_consistency(self, x):
        # lt and leq are consistent: lt implies leq, and not both strict
        # directions at once.
        y = x + 1.0
        assert lt(x, y)
        assert leq(x, y)
        assert not lt(y, x)


class TestDistributions:
    def test_validate_mapping(self):
        validate_distribution({"a": 0.5, "b": 0.5})

    def test_validate_sequence(self):
        validate_distribution([0.25, 0.75])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            validate_distribution([0.2, 0.2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_distribution([1.5, -0.5])

    def test_normalize(self):
        result = normalize_distribution({"a": 2.0, "b": 6.0})
        assert result == pytest.approx({"a": 0.25, "b": 0.75})

    def test_normalize_drops_zeros(self):
        result = normalize_distribution({"a": 1.0, "b": 0.0})
        assert result == {"a": 1.0}

    def test_normalize_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_distribution({})
        with pytest.raises(ValueError):
            normalize_distribution({"a": 0.0})


class TestProductSizeAndErrors:
    def test_product_size(self):
        assert product_size([2, 3, 4]) == 24.0
        assert product_size([]) == 1.0

    def test_product_size_handles_huge(self):
        # Floats avoid big-int blowups.
        assert product_size([10**6] * 5) == pytest.approx(1e30)

    def test_explosion_error_fields(self):
        error = ExplosionError("widgets", 1e9, 1e6)
        assert error.what == "widgets"
        assert error.size == 1e9
        assert error.limit == 1e6
        assert "widgets" in str(error)

    def test_explosion_error_survives_pickling(self):
        import pickle

        error = ExplosionError("strategy profiles", 8, 1)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is ExplosionError
        assert (copy.what, copy.size, copy.limit) == ("strategy profiles", 8, 1)
        assert str(copy) == str(error)
        assert copy.args == error.args
