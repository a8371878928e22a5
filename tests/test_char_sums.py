import math

import mpmath
import pytest

from cyclospec import (
    binomial_expansion_check,
    binomial_series_coeff,
    corollary5_scan,
    corollary6_check,
    cos_power_sum,
    cos_scan,
    enumerate_characters,
    faulhaber_rhs,
    l_function,
    s_power_sum,
    s_power_sum_range,
)
from cyclospec.errors import HypothesisError


def quad_char(k):
    out = [c for c in enumerate_characters(k)
           if c.is_real and c.is_even and c.is_primitive and not c.is_principal]
    assert len(out) == 1
    return out[0]


CHI5 = quad_char(5)
CHI8 = quad_char(8)


# ---------------------------------------------------------------------------
# Exact power sums
# ---------------------------------------------------------------------------

def test_s01_vanish():
    assert s_power_sum(0, CHI5).value == 0
    assert s_power_sum(1, CHI5).value == 0


def test_s2_s3_chi5_desk_values():
    assert s_power_sum(2, CHI5).value == 1 - 4 - 9 + 16  # 4
    assert s_power_sum(3, CHI5).value == 1 - 8 - 27 + 64  # 30


def test_range_n1_reduces_to_plain():
    for m in (0, 2, 5):
        assert s_power_sum_range(m, CHI5, 1).value == s_power_sum(m, CHI5).value


def test_range_m0_any_n():
    for n in (1, 3, 7):
        assert s_power_sum_range(0, CHI5, n).value == 0


def test_range_periodic_extension_oracle():
    # 9-term integer oracle, chi_5 extended by period 5
    vals = {1: 1, 2: -1, 3: -1, 4: 1, 0: 0}
    oracle = sum(vals[j % 5] * j ** 2 for j in range(1, 10))
    assert s_power_sum_range(2, CHI5, 2).value == oracle


def test_exactness_reverse_accumulation():
    for m in (3, 17, 40):
        forward = s_power_sum_range(m, CHI8, 3).value
        vals = [CHI8.int_value(j) for j in range(8)]
        backward = 0
        for j in range(8 * 3 - 1, 0, -1):
            backward += vals[j % 8] * j ** m
        assert forward == backward


def test_nonreal_character_rejected():
    complex_char = enumerate_characters(5)[1]
    with pytest.raises(HypothesisError):
        s_power_sum(2, complex_char)


# ---------------------------------------------------------------------------
# Faulhaber identity
# ---------------------------------------------------------------------------

def test_faulhaber_residual_sample_points():
    for chi, n, m in ((CHI5, 1, 4), (CHI8, 2, 7)):
        kn = chi.modulus * n
        lhs = s_power_sum_range(m, chi, n).value / kn ** m
        rhs = faulhaber_rhs(m, chi, n).value.real
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_faulhaber_grid():
    for k in (5, 8, 12, 13):
        chi = quad_char(k)
        for n in (1, 2, 3):
            for m in range(2, 8):
                lhs = s_power_sum_range(m, chi, n).value / (k * n) ** m
                rhs = faulhaber_rhs(m, chi, n).value.real
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_faulhaber_m2_single_term():
    n = 2
    manual = 2 * n * math.sqrt(5) * (2.0 / (4 * math.pi ** 2 * n * n)) \
        * l_function(2.0, CHI5).value.real
    assert faulhaber_rhs(2, CHI5, n).value.real == pytest.approx(manual, rel=1e-12)


# ---------------------------------------------------------------------------
# Corollary 6 / positivity
# ---------------------------------------------------------------------------

def test_corollary6_chi5_chi8():
    for chi in (CHI5, CHI8):
        results = corollary6_check(chi)
        small = {m for m, sign, _ in results if 2 <= m <= 7}
        assert small == set(range(2, 8))
        assert all(s > 0 for _, s, _ in results)


def test_corollary6_domination_boundary():
    # m = k - 2 = 3 for chi_5: S = 30 > 0
    results = dict((m, v) for m, _, v in corollary6_check(CHI5, large_m_samples=(3,)))
    assert results[3] == 30


# ---------------------------------------------------------------------------
# Cosine power sums
# ---------------------------------------------------------------------------

def test_cos_m0_vanishes():
    assert abs(cos_power_sum(0, CHI5, 1).value) <= 1e-12


def test_cos_m1_chi5_desk_value():
    v = cos_power_sum(1, CHI5, 1).value.real
    assert v == pytest.approx(math.sqrt(5) / 2, abs=1e-12)


def test_cos_term_bound():
    for m in (1, 10, 200):
        for n in (1, 3):
            v = cos_power_sum(m, CHI5, n).value.real
            assert abs(v) <= 5 * n


def test_cos_power_sum_error_bounds_mpmath():
    # T(m) for m = 1..400 against 50-digit sums, with chi written out by hand:
    # (5/j) by j mod 5, and the Legendre symbol (j/13) from the squares mod 13
    squares13 = {j * j % 13 for j in range(1, 13)}
    cases = ((CHI5, 20, lambda j: (0, 1, -1, -1, 1)[j % 5]),
             (quad_char(13), 5, lambda j: 0 if j % 13 == 0 else 1 if j % 13 in squares13 else -1))
    with mpmath.workdps(50):
        for chi, n, exact_chi in cases:
            kn = chi.modulus * n
            cosines = [(exact_chi(j), mpmath.cos(mpmath.pi * j / kn)) for j in range(1, kn)]
            for m in range(1, 401):
                exact = mpmath.fsum(c * x ** (2 * m) for c, x in cosines if c)
                ev = cos_power_sum(m, chi, n)
                err = abs(mpmath.mpf(ev.value.real) - exact)
                assert err <= ev.abs_error_estimate <= 1e-12, (chi.modulus, n, m)


def test_cos_scan_shape_and_report():
    rows = cos_scan(CHI5, 1, 50)
    assert len(rows) == 50
    assert all(row[0] == i + 1 for i, row in enumerate(rows))
    assert all(row[2] in (-1, 0, 1) for row in rows)


def test_binomial_expansion_consistency():
    for chi, n, s in ((CHI5, 1, 0.5), (CHI5, 2, 0.3), (CHI8, 1, 0.8)):
        check = binomial_expansion_check(chi, n, s, m_terms=200)
        assert check.residual <= check.tail_bound
        # and the truncated sum really equals sum a_m T(m)
        manual = sum(
            binomial_series_coeff(m, s / 2) * cos_power_sum(m, chi, n).value.real
            for m in range(1, 201)
        )
        assert check.truncated == pytest.approx(manual, abs=1e-12)


# ---------------------------------------------------------------------------
# Corollary 5 scan
# ---------------------------------------------------------------------------

def test_corollary5_chi5_half():
    rows, l_val = corollary5_scan(CHI5, 0.5, range(1, 65))
    assert l_val > 0  # computed, not assumed
    assert all(agrees for n, _, _, agrees in rows if n >= 16)


def test_corollary5_empty():
    rows, _ = corollary5_scan(CHI5, 0.5, [])
    assert rows == []


def test_corollary5_sign_matches_l_when_not_tiny():
    for s in (0.3, 0.5, 0.8):
        rows, l_val = corollary5_scan(CHI5, s, [48, 64])
        if abs(l_val) > 1e-6:
            assert all(agrees for _, _, _, agrees in rows)


def test_corollary5_domain():
    with pytest.raises(HypothesisError):
        corollary5_scan(CHI5, 1.5, [1])
