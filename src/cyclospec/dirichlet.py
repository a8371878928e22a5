"""Classical Dirichlet L-functions, the completed xi, zero location on the
critical line, and the ratio monotonicity scans.

L(s, chi) is evaluated through the Hurwitz zeta identity
L = k^{-s} sum_m chi(m) zeta(s, m/k).  Each zeta term has 1/(s-1)
subtracted; since sum chi(m) = 0 for non-principal chi this changes
nothing but removes the catastrophic cancellation near s = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .characters import DirichletCharacter, gauss_sum
from .errors import HypothesisError, NoZeroFoundError, PoleError
from .special import complex_gamma, hurwitz_zeta_em, require_finite_result

__all__ = [
    "LValue",
    "l_function",
    "completed_xi",
    "find_critical_zero",
    "ratio_monotonicity_scan",
    "rhs_decreasing_scan",
    "MonotonicityScan",
    "RhsScan",
]

_ZERO_GRID_STEP = 0.05
_ZERO_BRACKET = 1e-13
_ZERO_TOL = 1e-6  # relative to max |xi| at the grid bracket's ends
_MIN_T_HYPOTHESIS = 8.0


@dataclass(frozen=True)
class LValue:
    s: complex
    chi_id: tuple  # (modulus, index)
    value: complex
    abs_error_estimate: float


def _require_nonprincipal(chi: DirichletCharacter):
    if chi.is_principal:
        raise HypothesisError("principal characters are not supported")
    if chi.modulus < 3:
        raise HypothesisError("modulus must be >= 3")


def _require_even_primitive(chi: DirichletCharacter):
    _require_nonprincipal(chi)
    if not chi.is_primitive:
        raise HypothesisError(f"character ({chi.modulus},{chi.index}) is not primitive")
    if not chi.is_even:
        raise HypothesisError(f"character ({chi.modulus},{chi.index}) is odd")


def l_function(s: complex, chi: DirichletCharacter, *, n_terms=None, pairs=None) -> LValue:
    """Analytically continued L(s, chi) for non-principal chi, k >= 3."""
    _require_nonprincipal(chi)
    s = complex(s)
    k = chi.modulus
    residues = [m for m in range(1, k) if gcd(m, k) == 1]
    h, h_err = hurwitz_zeta_em(s, np.array(residues) / k, n_terms=n_terms, pairs=pairs,
                               subtract_pole=True)
    total = np.dot(np.array([chi.values[m] for m in residues]), h)
    with np.errstate(all="ignore"):
        scale = np.exp(-s * math.log(k))
        value = complex(scale * total)
        # k^{-s} carries the same |s| log k phase rounding as the Hurwitz terms
        err = float(abs(scale) * h_err.sum()
                    + (1e-16 * k + 4e-16 * abs(s) * math.log(k)) * abs(value))
    require_finite_result(value, err, f"L({s!r}, chi)")
    return LValue(s=s, chi_id=(k, chi.index), value=value, abs_error_estimate=err)


def _check_gamma_half_pole(s: complex):
    # poles of Gamma(s/2): s in {0, -2, -4, ...}
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real) and int(s.real) % 2 == 0:
        raise PoleError(f"Gamma(s/2) pole at s = {s.real:g}")


def completed_xi(s: complex, chi: DirichletCharacter, *, n_terms=None, pairs=None) -> LValue:
    """xi(s, chi) = (pi/k)^{-s/2} Gamma(s/2) L(s, chi) for primitive even chi."""
    _require_even_primitive(chi)
    s = complex(s)
    _check_gamma_half_pole(s)
    k = chi.modulus
    g = complex_gamma(s / 2.0)
    lv = l_function(s, chi, n_terms=n_terms, pairs=pairs)
    pref = cmath.exp(-(s / 2.0) * math.log(math.pi / k))
    value = pref * g.value * lv.value
    err = abs(pref) * (abs(g.value) * lv.abs_error_estimate + abs(lv.value) * g.abs_error_estimate)
    require_finite_result(value, err, f"xi({s!r}, chi)")
    return LValue(s=s, chi_id=(k, chi.index), value=value, abs_error_estimate=err)


def _verify_positive_real_gauss(chi: DirichletCharacter):
    k = chi.modulus
    g = gauss_sum(chi)
    if abs(g.imag) > 1e-9 * math.sqrt(k) or g.real <= 0.0:
        raise HypothesisError(
            f"root number of ({k},{chi.index}) is not +1 (G = {g!r}); "
            "sign-change bracketing needs a real-valued xi on the critical line"
        )


def _illinois(f, a: float, fa: float, b: float, fb: float) -> float:
    """Shrink a sign-change bracket of f below _ZERO_BRACKET; return its midpoint.

    Illinois regula falsi (Dowell & Jarratt, BIT 1971): the secant point
    of the bracket, with the function value kept at an end that survives
    two steps running halved so that both ends converge.  Each probe stays
    half a bracket tolerance inside the bracket, so once the secant point
    is that close to the zero the next probe lands across it.
    """
    kept = 0  # +1: a survived the last step, -1: b did
    for _ in range(100):
        if b - a < _ZERO_BRACKET:
            break
        z = (a * fb - b * fa) / (fb - fa)
        z = min(max(z, a + 0.5 * _ZERO_BRACKET), b - 0.5 * _ZERO_BRACKET)
        fz = f(z)
        if fz == 0.0:
            return z
        if (fz < 0.0) == (fa < 0.0):
            a, fa = z, fz
            if kept == -1:
                fb *= 0.5
            kept = -1
        else:
            b, fb = z, fz
            if kept == 1:
                fa *= 0.5
            kept = 1
    return 0.5 * (a + b)


def find_critical_zero(chi: DirichletCharacter, t_lo: float, t_hi: float) -> float:
    """Locate a zero of xi(1/2 + it, chi) in (t_lo, t_hi) by sign change.

    Valid only for real, even, primitive chi with Gauss sum +sqrt(k), in
    which case xi is real on the critical line.  The first sign change on
    a grid of step 0.05 is refined by Illinois regula falsi to a bracket
    narrower than 1e-13; the refined point must bring |xi| below 1e-6 of
    its size at the grid bracket's ends.
    """
    _require_even_primitive(chi)
    if not chi.is_real:
        raise HypothesisError("zero finding requires a real character")
    _verify_positive_real_gauss(chi)
    if not (0.0 < t_lo < t_hi <= 100.0):
        raise HypothesisError("need 0 < t_lo < t_hi <= 100")

    def f(t: float) -> float:
        return completed_xi(0.5 + 1j * t, chi).value.real

    steps = int(math.ceil((t_hi - t_lo) / _ZERO_GRID_STEP))
    grid = [t_lo + i * _ZERO_GRID_STEP for i in range(steps)] + [t_hi]
    prev_t, prev_f = grid[0], f(grid[0])
    for t in grid[1:]:
        ft = f(t)
        if prev_f == 0.0:
            return prev_t
        if prev_f * ft < 0.0:
            t_star = _illinois(f, prev_t, prev_f, t, ft)
            xi_star = abs(completed_xi(0.5 + 1j * t_star, chi).value)
            if xi_star > _ZERO_TOL * max(abs(prev_f), abs(ft)):
                raise NoZeroFoundError(
                    f"regula falsi stopped at t = {t_star!r} with |xi| = {xi_star:.3g}, "
                    f"not below {_ZERO_TOL:g} of its size at the bracket ends")
            return t_star
        prev_t, prev_f = t, ft
    raise NoZeroFoundError(f"no sign change of xi on the critical line in ({t_lo:g}, {t_hi:g})")


@dataclass(frozen=True)
class MonotonicityScan:
    rows: tuple  # (sigma, |L(sigma+it+2)/L(sigma+it-2)|)
    strictly_increasing: bool
    outside_hypothesis: bool


@dataclass(frozen=True)
class RhsScan:
    rows: tuple  # (sigma, 4 pi^2 / (k^2 |s^2 - 1|))
    strictly_decreasing: bool


def _check_grid(sigma_grid):
    grid = [float(x) for x in sigma_grid]
    if any(not (0.0 < x < 1.0) for x in grid):
        raise HypothesisError("sigma grid must lie in (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise HypothesisError("sigma grid must be strictly increasing")
    return grid


def ratio_monotonicity_scan(chi: DirichletCharacter, t: float, sigma_grid,
                            force: bool = False) -> MonotonicityScan:
    """Sample |L(s+2, chi) / L(s-2, chi)| along sigma at fixed t.

    The monotonicity statement assumes |t| >= 8; smaller |t| is allowed
    only with force=True and is flagged in the result.
    """
    _require_nonprincipal(chi)
    grid = _check_grid(sigma_grid)
    outside = abs(t) < _MIN_T_HYPOTHESIS
    if outside and not force:
        raise HypothesisError(f"|t| = {abs(t):g} < 8; pass force=True to scan anyway")
    rows = []
    for sigma in grid:
        s = complex(sigma, t)
        num = abs(l_function(s + 2.0, chi).value)
        den = abs(l_function(s - 2.0, chi).value)
        rows.append((sigma, num / den))
    increasing = all(b[1] > a[1] for a, b in zip(rows, rows[1:]))
    return MonotonicityScan(rows=tuple(rows), strictly_increasing=increasing,
                            outside_hypothesis=outside)


def rhs_decreasing_scan(k: int, t: float, sigma_grid) -> RhsScan:
    """Sample 4 pi^2 / (k^2 |s^2 - 1|) along sigma at fixed t != 0."""
    if t == 0.0:
        raise HypothesisError("t must be nonzero")
    grid = _check_grid(sigma_grid)
    rows = []
    for sigma in grid:
        s = complex(sigma, t)
        rows.append((sigma, 4.0 * math.pi ** 2 / (k * k * abs(s * s - 1.0))))
    decreasing = all(b[1] < a[1] for a, b in zip(rows, rows[1:]))
    return RhsScan(rows=tuple(rows), strictly_decreasing=decreasing)
