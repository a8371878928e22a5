import math

import mpmath
import numpy as np
import pytest

from cyclospec import dirichlet
from cyclospec import (
    completed_xi,
    enumerate_characters,
    find_critical_zero,
    gauss_sum,
    l_function,
    ratio_monotonicity_scan,
    rhs_decreasing_scan,
    riemann_zeta,
)
from cyclospec.errors import HypothesisError, NoZeroFoundError, PoleError


def quad_char(k):
    """The unique non-principal primitive even real character mod k."""
    out = [c for c in enumerate_characters(k)
           if c.is_real and c.is_even and c.is_primitive and not c.is_principal]
    assert len(out) == 1
    return out[0]


def l_series_oracle(s, chi, n=500_000):
    """Brute-force character Dirichlet series, Re s > 1.

    Abel summation bounds the tail by 2k |s| n^{-Re s} / Re s.
    """
    k = chi.modulus
    j = np.arange(1, n)
    coeffs = np.array([chi(int(x)) for x in range(k)])
    vals = coeffs[j % k]
    total = complex(np.sum(vals * np.exp(-s * np.log(j.astype(float)))))
    bound = 2 * k * abs(s) * n ** (-s.real) / s.real
    return total, bound


def test_l2_chi5_matches_series():
    chi = quad_char(5)
    oracle, bound = l_series_oracle(2.0 + 0j, chi)
    assert bound < 1e-9
    got = l_function(2.0, chi).value
    assert abs(got - oracle) <= bound + 1e-10


def test_eq1_consistency_primitive_even_characters():
    # Hurwitz-based continuation vs the defining series for Re s >= 2
    s = 2.0 + 0j
    for k in range(3, 51):
        for chi in enumerate_characters(k):
            if not (chi.is_primitive and chi.is_even and not chi.is_principal):
                continue
            oracle, bound = l_series_oracle(s, chi, n=400_000)
            assert abs(l_function(s, chi).value - oracle) <= bound + 1e-10


def test_l_real_for_real_character_real_s():
    chi = quad_char(5)
    for sigma in (-1.5, 0.5, 3.0):
        v = l_function(complex(sigma, 0.0), chi).value
        assert abs(v.imag) < 1e-12


def test_trivial_zeros_even_characters():
    for k in (5, 8):
        chi = quad_char(k)
        for m in (0, 1, 2):
            lv = l_function(complex(-2.0 * m, 0.0), chi)
            # cancellation round-off grows with k^{-s}; the evaluator's own
            # estimate accounts for it
            assert abs(lv.value) <= lv.abs_error_estimate + 1e-9


def test_l_negative_between_minus2_and_0():
    chi = quad_char(5)
    for sigma in (-1.5, -1.0, -0.5):
        assert l_function(complex(sigma, 0.0), chi).value.real < 0.0


def test_l_bounds_real_characters():
    # zeta(2s)/zeta(s) <= L(s, chi) <= zeta(s) for s > 1, real chi
    for k in range(3, 101):
        for chi in enumerate_characters(k):
            if not (chi.is_real and chi.is_even and chi.is_primitive and not chi.is_principal):
                continue
            for sigma in (1.5, 2.0, 3.0, 5.0):
                lv = l_function(complex(sigma, 0.0), chi).value.real
                upper = riemann_zeta(complex(sigma, 0.0)).value.real
                lower = riemann_zeta(complex(2 * sigma, 0.0)).value.real / upper
                assert lower - 1e-10 <= lv <= upper + 1e-10


def test_l_rejects_principal_and_small_modulus():
    with pytest.raises(HypothesisError):
        l_function(2.0, enumerate_characters(5)[0])
    with pytest.raises(HypothesisError):
        l_function(2.0, enumerate_characters(2)[0])


def test_l_error_estimate_bounds_mpmath():
    # L(s, chi) = k^{-s} sum_m chi(m) zeta(s, m/k), every term at 25 digits;
    # at t = 41 and 77 the rounding of the phase t log(j + a) dominates
    failures = []
    with mpmath.workdps(25):
        for k in (5, 8, 12, 13, 21, 29):
            chars = [c for c in enumerate_characters(k) if c.is_primitive and not c.is_principal]
            units = [m for m in range(1, k) if math.gcd(m, k) == 1]
            for sigma in (0.5, 1.5, 3.0):
                for t in (0.5, 14.0, 41.0, 77.0):
                    s = mpmath.mpc(sigma, t)
                    zetas = [mpmath.zeta(s, mpmath.mpf(m) / k) for m in units]
                    scale = mpmath.power(k, -s)
                    for chi in chars:
                        oracle = complex(scale * mpmath.fsum(
                            mpmath.mpc(chi.values[m]) * z for m, z in zip(units, zetas)))
                        lv = l_function(complex(sigma, t), chi)
                        if abs(lv.value - oracle) > lv.abs_error_estimate:
                            failures.append((k, chi.index, sigma, t))
    assert not failures


def test_l_finite_at_one():
    chi = quad_char(5)
    v = l_function(complex(1.0, 0.0), chi).value
    # L(1, chi_5) = 2 log((1+sqrt 5)/2) / sqrt 5 by the class number formula
    expected = 2.0 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    assert abs(v - expected) < 1e-10


# ---------------------------------------------------------------------------
# Completed xi
# ---------------------------------------------------------------------------

def test_xi_functional_equation_single_point():
    chi = quad_char(5)
    s = 0.3 + 9j
    lhs = abs(completed_xi(s, chi).value)
    rhs = abs(completed_xi(1 - s, chi.conjugate()).value)
    assert abs(lhs - rhs) <= 1e-8


def test_xi_functional_equation_grid():
    for k in (5, 8, 12, 13):
        chars = [c for c in enumerate_characters(k)
                 if c.is_primitive and c.is_even and not c.is_principal]
        chi = chars[0]
        for sigma in np.linspace(0.1, 0.9, 5):
            for t in np.linspace(8.0, 30.0, 5):
                s = complex(sigma, t)
                lhs = abs(completed_xi(s, chi).value)
                rhs = abs(completed_xi(1 - s, chi.conjugate()).value)
                assert abs(lhs - rhs) <= 1e-8


def test_xi_real_on_critical_line_for_plus_root_number():
    chi = quad_char(5)
    g = gauss_sum(chi)
    assert abs(g.imag) < 1e-9 and g.real > 0  # root number +1
    for t in (8.0, 12.0):
        assert abs(completed_xi(complex(0.5, t), chi).value.imag) <= 1e-9


def test_xi_schwarz_reflection():
    chi = quad_char(5)
    s = 0.4 + 5j
    a = completed_xi(s.conjugate(), chi).value
    b = completed_xi(s, chi).value.conjugate()
    assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_xi_pole_and_hypothesis_errors():
    chi = quad_char(5)
    with pytest.raises(PoleError):
        completed_xi(0.0, chi)
    with pytest.raises(PoleError):
        completed_xi(-2.0, chi)
    odd3 = [c for c in enumerate_characters(3) if not c.is_principal][0]
    with pytest.raises(HypothesisError):
        completed_xi(0.5, odd3)


# ---------------------------------------------------------------------------
# Zero finding
# ---------------------------------------------------------------------------

def test_find_zero_chi5():
    chi = quad_char(5)
    t = find_critical_zero(chi, 0.1, 10.0)
    assert 0.1 < t < 10.0
    assert abs(completed_xi(complex(0.5, t), chi).value) <= 1e-8


def test_find_zero_chi8():
    chi = quad_char(8)
    t = find_critical_zero(chi, 0.1, 10.0)
    assert abs(completed_xi(complex(0.5, t), chi).value) <= 1e-8


def test_find_zero_check_is_relative_to_xi(monkeypatch):
    # |xi| ~ e^{-pi t / 4} near t = 60, so an absolute 1e-8 check accepts
    # any point; the check relative to the grid bracket's ends does not
    chi = quad_char(5)
    t0 = find_critical_zero(chi, 59.0, 62.0)
    off = t0 + 1e-3
    assert abs(completed_xi(complex(0.5, off), chi).value) <= 1e-8
    monkeypatch.setattr(dirichlet, "_illinois", lambda *args: off)
    with pytest.raises(NoZeroFoundError):
        find_critical_zero(chi, 59.0, 62.0)


def test_find_zero_degenerate_range():
    chi = quad_char(5)
    with pytest.raises(NoZeroFoundError):
        find_critical_zero(chi, 3.0, 3.01)


def test_find_zero_rejects_complex_character():
    c13 = [c for c in enumerate_characters(13)
           if c.is_even and not c.is_real and not c.is_principal][0]
    with pytest.raises(HypothesisError):
        find_critical_zero(c13, 0.1, 10.0)


# ---------------------------------------------------------------------------
# Monotonicity scans
# ---------------------------------------------------------------------------

GRID = [round(0.05 * i, 2) for i in range(1, 20)]


def test_ratio_monotonicity_chi5():
    scan = ratio_monotonicity_scan(quad_char(5), 10.0, GRID)
    assert scan.strictly_increasing
    assert not scan.outside_hypothesis
    assert len(scan.rows) == 19


def test_ratio_monotonicity_chi8_boundary_t():
    scan = ratio_monotonicity_scan(quad_char(8), 8.0, GRID)
    assert scan.strictly_increasing


def test_ratio_monotonicity_single_point():
    scan = ratio_monotonicity_scan(quad_char(5), 10.0, [0.5])
    assert scan.strictly_increasing  # vacuous


def test_ratio_monotonicity_hypothesis_gate():
    chi = quad_char(5)
    with pytest.raises(HypothesisError):
        ratio_monotonicity_scan(chi, 5.0, GRID)
    scan = ratio_monotonicity_scan(chi, 5.0, GRID, force=True)
    assert scan.outside_hypothesis


def test_rhs_decreasing():
    scan = rhs_decreasing_scan(5, 10.0, GRID)
    assert scan.strictly_decreasing


def test_rhs_not_symmetric_in_sigma():
    scan = rhs_decreasing_scan(5, 10.0, [0.2, 0.8])
    assert scan.rows[0][1] != scan.rows[1][1]


def test_rhs_decreases_in_t():
    v10 = rhs_decreasing_scan(5, 10.0, [0.5]).rows[0][1]
    v50 = rhs_decreasing_scan(5, 50.0, [0.5]).rows[0][1]
    assert v50 < v10


def test_rhs_matches_formula():
    k, t, sigma = 5, 10.0, 0.3
    s = complex(sigma, t)
    expected = 4 * math.pi ** 2 / (k * k * abs(s * s - 1))
    assert rhs_decreasing_scan(k, t, [sigma]).rows[0][1] == pytest.approx(expected)
