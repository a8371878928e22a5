import cmath
import math
import random

import mpmath
import pytest

from cyclospec import (
    GraphLParams,
    LaplacianSpectrum,
    alpha,
    asymptotic_l_n,
    completed_xi,
    cycle_spectrum,
    enumerate_characters,
    find_critical_zero,
    graph_l_general,
    graph_l_n,
    graph_xi_n,
    l_function,
    ratio_experiment,
    xi_ratio,
)
from cyclospec.errors import DisconnectedGraphError, HypothesisError, PoleError
from cyclospec.graph import _EIGEN_ERR


def quad_char(k):
    out = [c for c in enumerate_characters(k)
           if c.is_real and c.is_even and c.is_primitive and not c.is_principal]
    assert len(out) == 1
    return out[0]


CHI5 = quad_char(5)


def scaled_remainder(n, s, chi):
    """(pi/(kn))^s L_n / 2 - L(s) - (s/6)(pi/(kn))^2 L(s-2)."""
    kn = chi.modulus * n
    ln = graph_l_n(GraphLParams(chi=chi, n=n, s=s)).value
    l0 = l_function(s, chi).value
    l2 = l_function(s - 2.0, chi).value
    return 0.5 * cmath.exp(s * math.log(math.pi / kn)) * ln \
        - l0 - (s / 6.0) * (math.pi / kn) ** 2 * l2


# ---------------------------------------------------------------------------
# graph_l_n
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(HypothesisError):
        GraphLParams(chi=CHI5, n=0, s=0.5)
    odd3 = [c for c in enumerate_characters(3) if not c.is_principal][0]
    with pytest.raises(HypothesisError):
        GraphLParams(chi=odd3, n=2, s=0.5)
    imprimitive = [c for c in enumerate_characters(10)
                   if c.is_real and not c.is_principal][0]
    with pytest.raises(HypothesisError):
        GraphLParams(chi=imprimitive, n=2, s=0.5)


def test_odd_character_gives_zero():
    # odd chi makes the sum vanish identically (forced past the parity check)
    odd3 = [c for c in enumerate_characters(3) if not c.is_principal][0]
    for n in (1, 4, 9):
        v = graph_l_n(GraphLParams(chi=odd3, n=n, s=0.7 + 2j, allow_odd=True)).value
        assert abs(v) <= 1e-13 * 3 * n


def test_s_zero_gives_character_sum():
    for n in (1, 3):
        v = graph_l_n(GraphLParams(chi=CHI5, n=n, s=0.0)).value
        assert abs(v) <= 1e-12


def test_real_character_real_s_is_real():
    for n in (2, 5):
        v = graph_l_n(GraphLParams(chi=CHI5, n=n, s=0.75)).value
        assert abs(v.imag) <= 1e-12 * 5 * n


def test_desk_oracle_k5_n1_s1():
    oracle = sum(
        round(CHI5(j).real) / math.sin(math.pi * j / 5) for j in range(1, 5)
    )
    v = graph_l_n(GraphLParams(chi=CHI5, n=1, s=1.0)).value
    assert abs(v - oracle) < 1e-13


def test_l_n_error_estimate_bounds_mpmath():
    # every term at 40 digits; at large |t| the phase t log sin(pi j / kn)
    # is rounded to |s| |log sin| ulps, which the estimate must cover
    failures = []
    with mpmath.workdps(40):
        for k in (5, 13):
            for chi in enumerate_characters(k):
                if not (chi.is_even and chi.is_primitive):
                    continue
                for s in (0.5 + 14j, 1.5 + 1e3j, 1.5 + 1e4j, 0.9 - 700j):
                    for n in (1, 16, 64):
                        m = k * n
                        oracle = complex(mpmath.fsum(
                            mpmath.mpc(chi(j)) * mpmath.power(mpmath.sin(mpmath.pi * j / m),
                                                              -mpmath.mpc(s))
                            for j in range(1, m) if chi(j) != 0))
                        ev = graph_l_n(GraphLParams(chi=chi, n=n, s=s))
                        if abs(ev.value - oracle) > ev.abs_error_estimate:
                            failures.append((k, chi.index, s, n))
    assert not failures


# ---------------------------------------------------------------------------
# graph_xi_n
# ---------------------------------------------------------------------------

def test_xi_n_critical_line_symmetry():
    for n in (1, 4, 16):
        for t in (8.0, 12.0):
            s = complex(0.5, t)
            a = abs(graph_xi_n(GraphLParams(chi=CHI5, n=n, s=s)).value)
            b = abs(graph_xi_n(GraphLParams(chi=CHI5, n=n, s=1 - s)).value)
            assert abs(a - b) <= 1e-10 * a


def test_xi_n_converges_to_twice_xi():
    s = 0.75 + 9j
    target = 2.0 * completed_xi(s, CHI5).value
    limit = abs(alpha(s, CHI5).value)
    consts = []
    for n in (8, 16, 32):
        xin = graph_xi_n(GraphLParams(chi=CHI5, n=n, s=s)).value
        consts.append(n * n * abs(xin - target))
    # n^2-scaled gap approaches |alpha|, so the observed constant is stable
    assert abs(consts[2] - limit) <= 0.1 * limit
    assert abs(consts[2] - consts[1]) <= abs(consts[1] - consts[0])


def test_xi_n_real_for_real_s_in_strip():
    v = graph_xi_n(GraphLParams(chi=CHI5, n=3, s=0.6)).value
    assert abs(v.imag) <= 1e-12 * abs(v)


def test_xi_n_strip_gate_and_pole():
    p = GraphLParams(chi=CHI5, n=2, s=1.5)
    with pytest.raises(HypothesisError):
        graph_xi_n(p)
    assert graph_xi_n(p, allow_outside_strip=True).value != 0
    with pytest.raises(PoleError):
        graph_xi_n(GraphLParams(chi=CHI5, n=2, s=-2.0), allow_outside_strip=True)


# ---------------------------------------------------------------------------
# asymptotic_l_n / remainder decay
# ---------------------------------------------------------------------------

def test_remainder_fourth_order_decay():
    s = 0.75 + 9j
    r16 = abs(scaled_remainder(16, s, CHI5))
    r32 = abs(scaled_remainder(32, s, CHI5))
    assert 0.6 / 16 <= r32 / r16 <= 1.6 / 16


def test_first_order_term_second_order_decay():
    s = 0.75 + 9j
    kn16, kn32 = 5 * 16, 5 * 32
    l0 = l_function(s, CHI5).value

    def first_gap(n):
        kn = 5 * n
        ln = graph_l_n(GraphLParams(chi=CHI5, n=n, s=s)).value
        return abs(0.5 * cmath.exp(s * math.log(math.pi / kn)) * ln - l0)

    ratio = first_gap(32) / first_gap(16)
    assert 0.15 <= ratio <= 0.35  # ~1/4


def test_asymptotic_formula_value():
    s = 0.75 + 9j
    n = 16
    kn = 5 * n
    approx = asymptotic_l_n(GraphLParams(chi=CHI5, n=n, s=s)).value
    l0 = l_function(s, CHI5).value
    l2 = l_function(s - 2.0, CHI5).value
    manual = 2.0 * cmath.exp(s * math.log(kn / math.pi)) * (
        l0 + (s / 6.0) * (math.pi / kn) ** 2 * l2)
    assert abs(approx - manual) < 1e-12 * abs(manual)


def test_s_zero_degenerate():
    v = graph_l_n(GraphLParams(chi=CHI5, n=4, s=0.0)).value
    assert abs(v) <= 1e-12
    # remainder definition degenerates consistently at s = 0
    assert abs(scaled_remainder(4, 0j, CHI5)) <= 1e-10


# ---------------------------------------------------------------------------
# alpha
# ---------------------------------------------------------------------------

def test_alpha_symmetry_on_critical_line():
    for t in (9.0, 15.0):
        s = complex(0.5, t)
        res = abs(abs(alpha(s, CHI5).value) - abs(alpha(1 - s, CHI5).value))
        assert res <= 1e-9


def test_alpha_eq3_eq4_equivalence():
    # on the critical line both residuals vanish together
    k = 5
    for i in range(20):
        s = complex(0.5, 8.0 + i * 0.7)
        res3 = abs(abs(alpha(s, CHI5).value) - abs(alpha(1 - s, CHI5).value))
        lhs = abs(l_function(s + 2, CHI5).value / l_function(s - 2, CHI5).value)
        rhs = 4 * math.pi ** 2 / (k * k * abs(s * s - 1))
        res4 = abs(lhs - rhs)
        assert res3 <= 1e-9
        assert res4 <= 1e-9


def test_alpha_schwarz_reflection():
    s = 0.3 + 7j
    a = alpha(s.conjugate(), CHI5).value
    b = alpha(s, CHI5).value.conjugate()
    assert abs(a - b) <= 1e-12 * abs(b)


def test_alpha_pole():
    with pytest.raises(PoleError):
        alpha(0.0, CHI5)


# ---------------------------------------------------------------------------
# xi_ratio / ratio_experiment
# ---------------------------------------------------------------------------

def test_xi_ratio_critical_line():
    for n in (4, 8, 64):
        r = xi_ratio(complex(0.5, 10.0), CHI5, n)
        assert abs(r - 1.0) <= 1e-10


def test_xi_ratio_offline_convergence():
    s = 0.75 + 9j
    r16 = xi_ratio(s, CHI5, 16)
    r32 = xi_ratio(s, CHI5, 32)
    assert 0.15 <= abs(r32 - 1) / abs(r16 - 1) <= 0.4


def test_xi_ratio_reciprocal_consistency():
    s = 0.75 + 9j
    prod = xi_ratio(s, CHI5, 8) * xi_ratio(1 - s, CHI5, 8)
    assert abs(prod - 1.0) <= 1e-12


def test_xi_ratio_strip_gate():
    with pytest.raises(HypothesisError):
        xi_ratio(1.5 + 9j, CHI5, 4)


def test_ratio_experiment_at_critical_zero():
    t_star = find_critical_zero(CHI5, 0.1, 10.0)
    rows = ratio_experiment(CHI5, [complex(0.5, t_star)], [2, 8, 32])
    for row in rows:
        assert abs(row.ratio - 1.0) <= 1e-8
        assert row.near_zero  # xi vanishes there, so L does too


def test_ratio_experiment_flags_and_empty():
    rows = ratio_experiment(CHI5, [0.75 + 9j], [4, 8])
    assert len(rows) == 2
    assert not rows[0].near_zero
    assert rows[0].alpha_ratio > 0
    assert ratio_experiment(CHI5, [0.75 + 9j], []) == []


# ---------------------------------------------------------------------------
# general graphs / cycle spectrum
# ---------------------------------------------------------------------------

def test_cycle_spectrum_small_closed_forms():
    assert cycle_spectrum(3).eigenvalues == pytest.approx((0.0, 3.0, 3.0))
    assert cycle_spectrum(4).eigenvalues == pytest.approx((0.0, 2.0, 2.0, 4.0))


def test_cycle_spectrum_m60_matches_closed_form():
    sp = cycle_spectrum(60)
    closed = sorted([0.0] + [4 * math.sin(math.pi * j / 60) ** 2 for j in range(1, 60)])
    assert max(abs(a - b) for a, b in zip(sp.eigenvalues, closed)) <= 1e-9


def test_cycle_frequency_ordering():
    sp = cycle_spectrum(15)
    for j, lam in enumerate(sp.frequency_eigenvalues, start=1):
        assert abs(lam - 4 * math.sin(math.pi * j / 15) ** 2) <= 1e-9


def test_general_graph_cycle_consistency():
    s = 0.4 + 3j
    for n in (2, 4):
        m = 5 * n
        lg = graph_l_general(cycle_spectrum(m), CHI5, s, ordering="frequency").value
        ln = graph_l_n(GraphLParams(chi=CHI5, n=n, s=2 * s)).value
        assert abs(lg - cmath.exp(-s * math.log(4.0)) * ln) <= 1e-9


def test_general_graph_error_estimate_bounds_mpmath():
    # the exact spectrum 4 sin^2(pi j / m) at 40 digits against the closed-form
    # one; the estimate must cover the eigenvalues' rounding as well as the sum's.
    # At m = 20000, lambda_2 / lambda_max = 2.5e-8, so error taken in ulps of the
    # largest eigenvalue would claim about 1e-6 |L_G|; the claim must stay within
    # 1e-11 |L_G| there
    failures = []
    with mpmath.workdps(40):
        for m, s in ((700, 0.9 + 5j), (700, 0.5 + 40j), (450, 0.5), (20000, 0.4 + 3j)):
            exact = [4 * mpmath.sin(mpmath.pi * j / m) ** 2 for j in range(1, m)]
            spectrum = cycle_spectrum(m)
            for chi in (CHI5, quad_char(13)) if m < 20000 else (CHI5,):
                for ordering, lams in (("frequency", exact), ("ascending", sorted(exact))):
                    oracle = complex(mpmath.fsum(
                        mpmath.mpc(chi(j)) * mpmath.power(lam, -mpmath.mpc(s))
                        for j, lam in enumerate(lams, start=1) if chi(j) != 0))
                    ev = graph_l_general(spectrum, chi, s, ordering=ordering)
                    if abs(ev.value - oracle) > ev.abs_error_estimate or (
                            m == 20000 and ev.abs_error_estimate > 1e-11 * abs(oracle)):
                        failures.append((chi.modulus, m, s, ordering))
    assert not failures


def test_cycle_eigenvalues_relative_error_mpmath():
    # every sampled 4 sin^2(pi j / m) within _EIGEN_ERR of its 40-digit value,
    # near j = 1, m/2 and m - 1, where folding matters most, and at random j
    rng = random.Random(5)
    failures = []
    with mpmath.workdps(40):
        for m in (3, 4, 7, 1000, 63000, 1000001, 1 << 22):
            freq = cycle_spectrum(m).frequency_eigenvalues
            js = {*range(1, min(m, 40)), *range(max(1, m - 40), m),
                  *range(max(1, m // 2 - 40), min(m, m // 2 + 40)),
                  *(rng.randrange(1, m) for _ in range(200))}
            for j in js:
                exact = 4 * mpmath.sin(mpmath.pi * j / m) ** 2
                if abs(freq[j - 1] - exact) > _EIGEN_ERR * exact:
                    failures.append((m, j))
    assert not failures


def test_general_graph_path_m2():
    chi3 = [c for c in enumerate_characters(3) if not c.is_principal][0]
    sp = LaplacianSpectrum(eigenvalues=(0.0, 2.0))
    s = 0.7 + 1j
    v = graph_l_general(sp, chi3, s).value
    assert abs(v - chi3(1) * cmath.exp(-s * math.log(2.0))) < 1e-14


def test_general_graph_s_zero():
    sp = cycle_spectrum(7)
    chi5 = CHI5
    v = graph_l_general(sp, chi5, 0.0).value
    expected = sum(chi5(j) for j in range(1, 7))
    assert abs(v - expected) < 1e-12


def test_general_graph_disconnected():
    sp = LaplacianSpectrum(eigenvalues=(0.0, 0.0, 2.0, 4.0))
    with pytest.raises(DisconnectedGraphError):
        graph_l_general(sp, CHI5, 1.0)


def test_additive_symmetry_shrinks():
    # |xi_n(s) - xi_n(1-s)| decays for real chi; n=32 at most 1/3 of n=16
    for i in range(10):
        s = complex(0.15 + 0.07 * i, 9.0 + 0.5 * i)
        gaps = []
        for n in (16, 32):
            a = graph_xi_n(GraphLParams(chi=CHI5, n=n, s=s)).value
            b = graph_xi_n(GraphLParams(chi=CHI5, n=n, s=1 - s)).value
            gaps.append(abs(a - b))
        assert gaps[1] <= gaps[0] / 3.0
