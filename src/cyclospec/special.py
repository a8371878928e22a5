"""Numerical kernel: complex gamma, Hurwitz/Riemann zeta, series coefficients.

Everything here is 64-bit floating point.  The Hurwitz zeta uses
Euler-Maclaurin summation (partial sum + integral term + Bernoulli
corrections), evaluated for many parameters a at once in one numpy pass,
and reports a truncation plus rounding error estimate; gamma is a
Lanczos rational approximation with reflection for Re z < 1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, PoleError, RangeError

__all__ = [
    "Evaluation",
    "complex_gamma",
    "hurwitz_zeta",
    "hurwitz_zeta_minus_pole",
    "hurwitz_zeta_em",
    "riemann_zeta",
    "binomial_series_coeff",
    "central_derivative",
]


@dataclass(frozen=True)
class Evaluation:
    """A computed value together with a claimed absolute error bound."""

    value: complex
    abs_error_estimate: float


def _require_finite(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"non-finite argument {s!r}")
    return s


def require_finite_result(value: complex, err: float, what: str, s: complex) -> None:
    """RangeError unless value and err are finite; what is formatted with s on failure."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag) and math.isfinite(err)):
        raise RangeError(what.format(s=s) + " overflows")


def _require_finite_rows(total, err, what: str, s: complex) -> None:
    """require_finite_result for arrays, in one test of total + err (err is >= 0)."""
    if not np.isfinite(total + err).all():
        raise RangeError(what.format(s=s) + " overflows")


def _power_sum(logs, s: complex, weights, log_err, what: str):
    """(totals, error bounds) of the rows of weights_j exp(-s logs_j), logs_j = log b_j.

    The one kernel of the Hurwitz partial sums, L_n and L_G.  weights is one per
    column; weight-0 columns are left out, so odd chi give 0.  None means all 1
    and skips the multiply, a fast path for the Hurwitz grid (l_function is
    about 10 % slower per call with unit weights).
    A term's bound is |term| times 2 + log2 N ulps (the pairwise sum), |s| |log b_j|
    ulps (the phase of exp) and |s| log_err_j, log_err (a scalar or one per column)
    bounding the error of log b_j.  RangeError if a total or bound is not finite.
    """
    if weights is not None:
        keep = weights != 0.0
        weights, logs = weights.compress(keep), logs.compress(keep, axis=-1)
        log_err = log_err.compress(keep) if np.ndim(log_err) else log_err
    abs_s = math.hypot(s.real, s.imag)  # inf, where abs(s) raises, beyond the float range
    with np.errstate(all="ignore"):
        terms = np.exp(-s * logs) if weights is None else weights * np.exp(-s * logs)
        total = terms.sum(axis=-1)
        sum_err = 4e-16 * (2.0 + math.log2(max(logs.shape[-1], 1)))
        err = (np.abs(terms) * (sum_err + abs_s * log_err + 4e-16 * abs_s * np.abs(logs))).sum(-1)
    _require_finite_rows(total, err, what, s)
    return total, err


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

# Lanczos g=7, n=9 coefficient set; ~1e-13 relative accuracy in double.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _lanczos(z: complex) -> complex:
    # valid for Re z >= 0.5
    z = z - 1.0
    x = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * cmath.exp(-t) * x


def complex_gamma(s: complex) -> Evaluation:
    """Gamma(s); raises PoleError at the non-positive integers."""
    s = _require_finite(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise PoleError(f"gamma pole at s={s.real:g}")
    try:
        if s.real < 0.5:
            # reflection formula
            val = math.pi / (cmath.sin(math.pi * s) * _lanczos(1.0 - s))
        else:
            val = _lanczos(s)
    except (OverflowError, ZeroDivisionError):
        raise RangeError(f"Gamma({s!r}) overflows") from None
    require_finite_result(val, 0.0, "Gamma({s!r})", s)
    return Evaluation(val, 5e-13 * abs(val))


# ---------------------------------------------------------------------------
# Hurwitz zeta (Euler-Maclaurin)
# ---------------------------------------------------------------------------

_B2N = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6),
)
# B_{2r} / (2r)!  for r = 1..13 (the 13th only feeds the error estimate)
_EM_COEFF = np.array([float(b / math.factorial(2 * r)) for r, b in enumerate(_B2N, start=1)])

_MAX_PAIRS = 12
_MAX_IM = 100.0
_MAX_GRID = 1 << 22  # (residue x term) cells in one pass: 64 MB of complex terms


def hurwitz_zeta_em(s: complex, a, *, n_terms=None, pairs=None,
                    subtract_pole: bool = False):
    """Euler-Maclaurin zeta(s, a_i) for every a_i > 0 in one numpy pass.

    Returns (values, abs_errors), a complex and a float array shaped like
    `a`.  With subtract_pole each value is zeta(s, a_i) - 1/(s-1), which
    is finite (and smooth) at s = 1.  Every a_i shares the partial-sum
    length N = max(20, 2|t|) and the Bernoulli-pair count, so the partial
    sums form one (residue x term) grid, summed by _power_sum, and the
    Bernoulli corrections one (residue x pair) product.  The error adds
    to _power_sum's bound 1 + |s| log(N+a) ulps of the integral and
    Bernoulli terms and the first omitted Bernoulli term.
    """
    s = _require_finite(s)
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not (a > 0.0).all():
        raise DomainError("need at least one Hurwitz parameter a, all positive")
    if abs(s.imag) > _MAX_IM:
        raise RangeError(f"|Im s| = {abs(s.imag):g} > {_MAX_IM:g} is unsupported")
    n = n_terms if n_terms else max(20, math.ceil(2.0 * abs(s.imag)))
    m = min(pairs if pairs else _MAX_PAIRS, _MAX_PAIRS)
    if n < 1 or m < 1:
        raise DomainError("Euler-Maclaurin terms and pairs must be positive")
    if n * a.size > _MAX_GRID:
        raise RangeError(f"{n} terms x {a.size} residues exceeds {_MAX_GRID} cells")

    what = "Euler-Maclaurin sum at s = {s!r}"
    total, err = _power_sum(np.log(np.arange(n) + a.reshape(-1, 1)), s, None, 0.0, what)
    with np.errstate(all="ignore"):
        base = n + a.ravel()
        lb = np.log(base)
        pw = np.exp(-s * lb)  # base^{-s}
        if subtract_pole:
            # ((N+a)^{1-s} - 1) / (s - 1) = -log(N+a) * (e^w - 1) / w, w = (1-s) log(N+a)
            w = (1.0 - s) * lb
            if abs(1.0 - s) * lb.max() < 1e-4:  # Taylor series of (e^w - 1) / w
                integral = -lb * (1.0 + w / 2.0 + w * w / 6.0 + w * w * w / 24.0)
            else:
                integral = -lb * ((np.exp(w) - 1.0) / w)
        else:
            integral = base * pw / (s - 1.0)
        total += integral + 0.5 * pw
        tail_abs = np.abs(integral) + 0.5 * np.abs(pw)

        # s (s+1) ... (s + 2r - 2) for r = 1..m+1; the last feeds the error only
        rise = (s + np.arange(1, 2 * m + 1, 2)) * (s + np.arange(2, 2 * m + 2, 2))
        poch = np.cumprod(np.concatenate(([s], rise)))
        # base^{-s - (2r - 1)} for r = 1..m+1
        cur = (pw / base)[:, None] * (base * base)[:, None] ** -np.arange(m + 1)
        bern = (_EM_COEFF[:m + 1] * poch) * cur
        total += bern[:, :m].sum(axis=1)
        tail_abs += np.abs(bern[:, :m]).sum(axis=1)

        # remainder bound: first omitted Bernoulli term times a safety factor
        denom = s.real + 2 * m + 1
        factor = abs(s + 2 * m + 1) / denom if denom > 0 else 10.0
        err += np.abs(bern[:, m]) * max(1.0, factor) + 4e-16 * (1.0 + abs(s) * lb) * tail_abs
    _require_finite_rows(total, err, what, s)
    return total.reshape(a.shape), err.reshape(a.shape)


def _hurwitz_one(s, a: float, n_terms, pairs, subtract_pole: bool) -> Evaluation:
    s = _require_finite(s)
    if not (0.0 < a <= 1.0):
        raise DomainError(f"a = {a:g} outside (0, 1]")
    if s == 1.0 and not subtract_pole:
        raise PoleError("hurwitz_zeta pole at s = 1")
    value, err = hurwitz_zeta_em(s, a, n_terms=n_terms, pairs=pairs,
                                 subtract_pole=subtract_pole)
    return Evaluation(complex(value), float(err))


def hurwitz_zeta(s: complex, a: float, *, n_terms=None, pairs=None) -> Evaluation:
    """Analytically continued Hurwitz zeta(s, a) for 0 < a <= 1, s != 1."""
    return _hurwitz_one(s, a, n_terms, pairs, subtract_pole=False)


def hurwitz_zeta_minus_pole(s: complex, a: float, *, n_terms=None, pairs=None) -> Evaluation:
    """zeta(s, a) - 1/(s-1); finite at s = 1, used for pole cancellation."""
    return _hurwitz_one(s, a, n_terms, pairs, subtract_pole=True)


def riemann_zeta(s: complex, *, n_terms=None, pairs=None) -> Evaluation:
    """zeta(s) = hurwitz_zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0, n_terms=n_terms, pairs=pairs)


# ---------------------------------------------------------------------------
# Binomial series and derivatives
# ---------------------------------------------------------------------------

def binomial_series_coeff(m: int, s: float) -> float:
    """m-th coefficient of (1-x)^{-s}: rising factorial over factorial.

    Computed by the stable recurrence a_m = a_{m-1} (s + m - 1) / m.
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    a = 1.0
    for i in range(1, m + 1):
        a *= (s + i - 1) / i
    return a


def central_derivative(f, x: float, h: float = 1e-5) -> float:
    """Central finite difference with one Richardson refinement."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0
