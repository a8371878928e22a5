import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclospec import (
    binomial_series_coeff,
    complex_gamma,
    hurwitz_zeta,
    riemann_zeta,
)
from cyclospec.errors import DomainError, PoleError, RangeError
from cyclospec.special import central_derivative, hurwitz_zeta_em, hurwitz_zeta_minus_pole


def series_oracle(s, a, n=200_000):
    """Brute-force sum of (m+a)^{-s} with an integral + midpoint tail.

    Independent of the production Euler-Maclaurin path: no Bernoulli
    corrections, plain vectorized summation.  Valid for Re s > 1.
    """
    m = np.arange(n)
    partial = np.sum(np.exp(-s * np.log(m + a)))
    base = n + a
    tail = base ** (1 - s) / (s - 1) + 0.5 * base ** (-s)
    bound = abs(s * (s + 1)) * base ** (-s.real - 2)
    return partial + tail, bound


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def test_gamma_classical_values():
    assert abs(complex_gamma(1.0).value - 1.0) < 1e-13
    assert abs(complex_gamma(0.5).value - math.sqrt(math.pi)) < 1e-12
    assert abs(complex_gamma(5.0).value - 24.0) < 1e-11


def test_gamma_reflection_on_critical_line():
    for t in (1.0, 5.0, 10.0):
        g = complex_gamma(complex(0.5, t)).value
        assert abs(abs(g) ** 2 - math.pi / math.cosh(math.pi * t)) < 1e-12


def test_gamma_recurrence_random_points():
    rng = random.Random(7)
    for _ in range(100):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-50, 50))
        lhs = complex_gamma(s + 1).value
        rhs = s * complex_gamma(s).value
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@given(st.integers(min_value=0, max_value=30))
def test_gamma_pole_errors(m):
    with pytest.raises(PoleError):
        complex_gamma(float(-m))


def test_gamma_rejects_non_finite():
    with pytest.raises(DomainError):
        complex_gamma(complex(float("nan"), 0.0))


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

def test_hurwitz_closed_forms():
    assert abs(hurwitz_zeta(2.0, 1.0).value - math.pi ** 2 / 6) < 1e-12
    assert abs(hurwitz_zeta(2.0, 0.5).value - math.pi ** 2 / 2) < 1e-12
    for a in (0.25, 0.5, 1.0):
        assert abs(hurwitz_zeta(0.0, a).value - (0.5 - a)) < 1e-12


def test_hurwitz_matches_series_at_complex_point():
    s, a = 3 + 4j, 0.3
    # direct series to a 1e-12 tail bound (Re s = 3: N^{-2}/2 <= 5e-13)
    n = 1_000_000
    m = np.arange(n)
    oracle = complex(np.sum(np.exp(-s * np.log(m + a))))
    tail = (n + a) ** (1 - s) / (s - 1)
    assert abs(tail) < 2e-6  # the raw series tail; refine with the bound below
    oracle += tail
    got = hurwitz_zeta(s, a).value
    assert abs(got - oracle) < 1e-10


def test_hurwitz_random_against_oracle():
    rng = random.Random(42)
    for _ in range(50):
        s = complex(rng.uniform(2.0, 6.0), rng.uniform(-30.0, 30.0))
        a = rng.uniform(0.05, 1.0)
        oracle, bound = series_oracle(s, a)
        assert bound < 1e-11
        assert abs(hurwitz_zeta(s, a).value - oracle) < 1e-10


def test_hurwitz_error_estimate_vs_doubled_cutoff():
    rng = random.Random(99)
    for _ in range(100):
        s = complex(rng.uniform(0.0, 3.0), rng.uniform(-50.0, 50.0))
        if abs(s - 1.0) < 1e-3:
            continue
        a = rng.uniform(0.05, 1.0)
        base = hurwitz_zeta(s, a)
        n = max(20, math.ceil(2 * abs(s.imag)))
        refined = hurwitz_zeta(s, a, n_terms=2 * n)
        budget = base.abs_error_estimate + refined.abs_error_estimate + 1e-13
        assert abs(base.value - refined.value) <= budget


def test_hurwitz_shift_rule():
    # zeta(s, a) = a^{-s} + zeta(s, a+1); the a+1 side goes through the
    # array kernel since the public domain is (0, 1]
    for s in (2.5 + 3j, 0.3 - 7j, -1.5 + 2j):
        for a in (0.2, 0.7, 1.0):
            lhs = hurwitz_zeta(s, a).value
            shifted = complex(hurwitz_zeta_em(s, a + 1.0)[0])
            rhs = cmath.exp(-s * math.log(a)) + shifted
            assert abs(lhs - rhs) < 1e-11


def test_hurwitz_minus_pole_is_smooth_through_one():
    a = 0.3
    vals = [hurwitz_zeta_minus_pole(complex(1.0 + eps, 0.0), a).value
            for eps in (-1e-7, 0.0, 1e-7)]
    assert abs(vals[0] - vals[1]) < 1e-6
    assert abs(vals[2] - vals[1]) < 1e-6


def test_hurwitz_domain_and_pole_errors():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 1.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(RangeError):
        hurwitz_zeta(complex(2.0, 150.0), 0.5)


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

def test_zeta_values():
    assert abs(riemann_zeta(2.0).value - math.pi ** 2 / 6) < 1e-12
    assert abs(riemann_zeta(0.0).value - (-0.5)) < 1e-12


def test_zeta_log_derivative_bound_at_two():
    # -zeta'(2)/zeta(2) < 0.57, zeta' by central finite difference
    def zr(x):
        return riemann_zeta(complex(x, 0.0)).value.real

    d = central_derivative(zr, 2.0, 1e-5)
    assert -d / zr(2.0) < 0.57
    assert -d / zr(2.0) > 0.56  # known value ~0.5699


# ---------------------------------------------------------------------------
# Binomial series coefficients
# ---------------------------------------------------------------------------

def test_binomial_coeff_closed_forms():
    assert binomial_series_coeff(0, 0.5) == 1.0
    assert abs(binomial_series_coeff(1, 0.5) - 0.5) < 1e-15
    assert abs(binomial_series_coeff(2, 0.5) - 0.375) < 1e-15


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=500),
       st.floats(min_value=0.01, max_value=0.99))
def test_binomial_coeff_positive_in_unit_interval(m, s):
    assert binomial_series_coeff(m, s) > 0.0


def test_binomial_coeff_generating_function():
    # compare against the Taylor expansion of (1-x)^{-s} at a small x
    s, x = 0.7, 0.1
    total = sum(binomial_series_coeff(m, s) * x ** m for m in range(60))
    assert abs(total - (1 - x) ** (-s)) < 1e-14
