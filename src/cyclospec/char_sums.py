"""Exact character power sums and the positivity experiments.

S(m, chi) sums are kept in arbitrary-precision integers: the sign claims
are exact statements and must never pass through floating point.  The
cosine power sums and the twisted Faulhaber right-hand side are floating
point; the cosine sums are rounded once, by math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter
from .dirichlet import _require_even_primitive, l_function
from .errors import HypothesisError, RangeError
from .graph import GraphLParams, graph_l_n
from .special import Evaluation

__all__ = [
    "ExactSum",
    "s_power_sum",
    "s_power_sum_range",
    "faulhaber_rhs",
    "corollary6_check",
    "cos_power_sum",
    "cos_scan",
    "corollary5_scan",
    "binomial_expansion_check",
    "ExpansionCheck",
]


@dataclass(frozen=True)
class ExactSum:
    value: int
    m: int
    chi_id: tuple  # (modulus, index)
    range_end: int  # kn; the sum runs over 1..kn-1


def _require_real(chi: DirichletCharacter):
    if not chi.is_real:
        raise HypothesisError(f"character ({chi.modulus},{chi.index}) is not real")


def _require_even_real_primitive(chi: DirichletCharacter):
    _require_real(chi)
    _require_even_primitive(chi)


def _int_table(chi: DirichletCharacter) -> list:
    """chi(j) for j = 0..k-1 as exact ints: 1 at log 0, -1 at log e/2, 0 off the units."""
    return [0 if a < 0 else 1 if a == 0 else -1 for a in chi.logs.tolist()]


def s_power_sum(m: int, chi: DirichletCharacter) -> ExactSum:
    """S(m, chi) = sum_{j=1}^{k-1} chi(j) j^m, exactly."""
    return s_power_sum_range(m, chi, 1)


def s_power_sum_range(m: int, chi: DirichletCharacter, n: int) -> ExactSum:
    """sum_{j=1}^{kn-1} chi(j) j^m with chi extended by periodicity."""
    _require_real(chi)
    if m < 0:
        raise HypothesisError("m must be nonnegative")
    if n < 1:
        raise HypothesisError("n must be >= 1")
    k = chi.modulus
    kn = k * n
    ints = _int_table(chi)
    total = 0
    for j in range(1, kn):
        c = ints[j % k]
        if c:
            total += c * j ** m
    return ExactSum(value=total, m=m, chi_id=(k, chi.index), range_end=kn)


def faulhaber_rhs(m: int, chi: DirichletCharacter, n: int) -> Evaluation:
    """Right-hand side of the twisted Faulhaber identity:

    2 n sqrt(k) * sum_{j=1}^{floor(m/2)}
        (-1)^{j+1} m (m-1) ... (m-2j+2) / (4 pi^2 n^2)^j * L(2j, chi).
    """
    _require_even_real_primitive(chi)
    if m < 2:
        raise HypothesisError("m must be >= 2")
    if n < 1:
        raise HypothesisError("n must be >= 1")
    k = chi.modulus
    total = 0.0
    err = 0.0
    size = 0.0  # sum of |term|, for the rounding allowance
    ratio = 1.0  # m (m-1) ... (m - 2j + 2) / (4 pi^2 n^2)^j as one running product
    denom = 4.0 * math.pi ** 2 * n * n
    for j in range(1, m // 2 + 1):
        if j == 1:
            ratio = m / denom
        else:
            ratio *= (m - 2 * j + 3) * (m - 2 * j + 2) / denom
        lv = l_function(complex(2 * j, 0.0), chi)
        coeff = ratio if j % 2 else -ratio
        total += coeff * lv.value.real
        err += ratio * lv.abs_error_estimate
        size += ratio * abs(lv.value.real)
    scale = 2.0 * n * math.sqrt(k)
    value = scale * total
    err = scale * err + 1e-15 * abs(value) + 4e-16 * scale * size
    if not err < abs(value):  # also catches an overflowed, non-finite sum
        raise RangeError(f"Faulhaber right-hand side for m = {m}, n = {n} is lost to "
                         f"rounding: error bound {err:.3g} >= |rhs| {abs(value):.3g}")
    return Evaluation(value, err)


def corollary6_check(chi: DirichletCharacter, large_m_samples=None):
    """Exact signs of S(m, chi) for m = 2..7 plus sampled m >= k-2.

    Returns a list of (m, sign, value).  A negative entry anywhere would
    be a counterexample candidate to the positivity question.
    """
    _require_even_real_primitive(chi)
    k = chi.modulus
    if large_m_samples is None:
        large_m_samples = (k - 2, k, k + 7)
    ms = list(range(2, 8)) + [m for m in large_m_samples if m >= k - 2]
    out = []
    for m in ms:
        v = s_power_sum(m, chi).value
        sign = (v > 0) - (v < 0)
        out.append((m, sign, v))
    return out


# The error of cos_power_sum, in u = 2^-53.  In a term chi(j) cos(x)^(2m), x = pi j / kn
# is rounded three times (math.pi, product, quotient: 3u), which moves cos x by
# 3u x |tan x| relative; math.cos adds an ulp (2u), the 2m-th power multiplies
# both by 2m and adds an ulp.  Summed over |term|, plus math.fsum's one rounding
# of the total (u |T|).  This is first order in u; the terms it misses lie within
# a few u of pi/2, below (4u)^(2m), and one below the normal range is off by 2^-1074.
_U = 2.0 ** -53


@lru_cache(maxsize=1)  # cos_scan asks for the same (chi, n) at every m
def _cos_table(chi: DirichletCharacter, n: int):
    """chi(j), cos(pi j / kn) and x |tan x| at x = pi j / kn, over the j with chi(j) != 0."""
    k = chi.modulus
    kn = k * n
    ints = _int_table(chi)
    js = [j for j in range(1, kn) if ints[j % k]]
    x = np.pi * np.array(js) / kn
    return ([ints[j % k] for j in js], [math.cos(math.pi * j / kn) for j in js],
            x * np.abs(np.tan(x)))


def cos_power_sum(m: int, chi: DirichletCharacter, n: int) -> Evaluation:
    """T(m) = sum_{j=1}^{kn-1} chi(j) cos^{2m}(pi j / kn), summed by math.fsum."""
    _require_even_real_primitive(chi)
    if m < 0:
        raise HypothesisError("m must be nonnegative")
    if n < 1:
        raise HypothesisError("n must be >= 1")
    signs, cosines, slope = _cos_table(chi, n)
    terms = [c * x ** (2 * m) for c, x in zip(signs, cosines)]
    total = math.fsum(terms)
    size = float(np.abs(terms) @ (4 * m + 2 + 6 * m * slope))
    return Evaluation(complex(total), _U * (size + abs(total)) + len(terms) * math.ulp(0.0))


def cos_scan(chi: DirichletCharacter, n: int, m_max: int):
    """Signs of T(m) for m = 1..m_max; reports, never asserts an answer."""
    rows = []
    kn = chi.modulus * n
    tiny = 1e-12 * kn
    for m in range(1, m_max + 1):
        v = cos_power_sum(m, chi, n).value.real
        sign = 0 if abs(v) <= tiny else (1 if v > 0 else -1)
        rows.append((m, v, sign))
    return rows


def corollary5_scan(chi: DirichletCharacter, s: float, n_list):
    """Signs of L_n(s, chi) for real 0 < s < 1, against the sign of L(s, chi).

    Returns (rows, l_value) where rows are (n, L_n value, sign,
    agrees_with_l).
    """
    _require_even_real_primitive(chi)
    if not (0.0 < s < 1.0):
        raise HypothesisError("s must lie in (0, 1)")
    l_val = l_function(complex(s, 0.0), chi).value.real
    l_sign = (l_val > 0) - (l_val < 0)
    rows = []
    for n in n_list:
        v = graph_l_n(GraphLParams(chi=chi, n=n, s=complex(s, 0.0))).value.real
        sign = (v > 0) - (v < 0)
        rows.append((n, v, sign, sign == l_sign))
    return rows, l_val


@dataclass(frozen=True)
class ExpansionCheck:
    truncated: float
    tail_bound: float
    l_n: float
    residual: float


def binomial_expansion_check(chi: DirichletCharacter, n: int, s: float,
                             m_terms: int = 200, tail_terms: int = 1000) -> ExpansionCheck:
    """Check sum_{m<=M} a_m(s/2) T(m) against L_n(s, chi), real 0 < s < 1.

    The tail bound is (kn-1) * sum of the next `tail_terms` series terms at
    x = cos^2(pi/kn), plus an explicit floating round-off allowance (the
    analytic tail alone is far below double precision resolution).
    """
    _require_even_real_primitive(chi)
    if not (0.0 < s < 1.0):
        raise HypothesisError("s must lie in (0, 1)")
    kn = chi.modulus * n
    weights, cosines, _ = _cos_table(chi, n)
    cos2 = [c ** 2 for c in cosines]

    half = s / 2.0
    a = 1.0  # a_0
    powers = [1.0] * len(cos2)
    terms = []
    for m in range(1, m_terms + 1):
        a *= (half + m - 1) / m
        t_m = 0.0
        for i, w in enumerate(weights):
            powers[i] *= cos2[i]
            t_m += w * powers[i]
        terms.append(a * t_m)
    total = math.fsum(terms)

    x = math.cos(math.pi / kn) ** 2
    xp = x ** (m_terms + 1)
    tail = 0.0
    am = a
    for m in range(m_terms + 1, m_terms + 1 + tail_terms):
        am *= (half + m - 1) / m
        tail += am * xp
        xp *= x
    tail_bound = (kn - 1) * tail + 8e-16 * m_terms * kn

    ln = graph_l_n(GraphLParams(chi=chi, n=n, s=complex(s, 0.0))).value.real
    return ExpansionCheck(truncated=total, tail_bound=tail_bound, l_n=ln,
                          residual=abs(total - ln))
