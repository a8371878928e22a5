"""Spectral L-functions of graphs.

The central objects: L_n(s, chi) of the cycle Z/knZ, its completed form
xi_n, the two-term large-n approximation, the alpha correction term, the
ratio-limit experiment, and the general-graph L over a Laplacian spectrum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter
from .dirichlet import _gamma_factor, _require_even_primitive, _xi_from_l, l_function
from .errors import DisconnectedGraphError, HypothesisError, RangeError
from .special import Evaluation, _power_sum, _require_finite, require_finite_result

__all__ = [
    "GraphLParams",
    "LaplacianSpectrum",
    "graph_l_n",
    "graph_xi_n",
    "asymptotic_l_n",
    "alpha",
    "xi_ratio",
    "ratio_experiment",
    "RatioRow",
    "graph_l_general",
    "cycle_spectrum",
]

NEAR_ZERO_THRESHOLD = 1e-6  # |L(s,chi)| below this flags "near a zero of L"
_RATIO_GUARD = 1e-14
# most vertices of a cycle (kn of L_n, m of cycle_spectrum), a memory bound:
# graph lg --cycle 2^22 peaks at about 400 MB
_MAX_CYCLE = 1 << 22
# error of log sin(pi j / kn) for pi j / kn <= pi/2: the rounded argument and
# sine are each within an ulp or so, and x cot x <= 1 there
_LOG_SIN_ERR = 5e-16
# relative error of a cycle eigenvalue 4 sin^2(pi i / m), i = min(j, m - j), in
# u = 2^-53: the argument rounds pi, pi i and the quotient (2.4 u); sin carries
# that with factor x cot x <= 1 on (0, pi/2] and adds 1 ulp (2 u); the square
# doubles the 4.4 u and rounds: 9.8 u = 1.1e-15 (6.2 u measured against mpmath)
_EIGEN_ERR = 1.5e-15


@dataclass(frozen=True)
class GraphLParams:
    """Parameters of L_n: cycle with k*n vertices, character chi, point s.

    allow_odd skips the evenness check (odd characters give the zero
    function; useful for exercising exactly that fact).
    """

    chi: DirichletCharacter
    n: int
    s: complex
    allow_odd: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise HypothesisError("n must be >= 1")
        _require_even_primitive(self.chi, allow_odd=self.allow_odd)
        if self.chi.modulus * self.n > _MAX_CYCLE:
            raise RangeError(f"kn = {self.chi.modulus * self.n} exceeds the cycle cap {_MAX_CYCLE}")
        object.__setattr__(self, "s", _require_finite(self.s))


def graph_l_n(p: GraphLParams) -> Evaluation:
    """L_n(s, chi) = sum_{j=1}^{kn-1} chi(j) sin(pi j / kn)^{-s}.

    sin(pi (kn - j) / kn) = sin(pi j / kn), so the sum runs over
    j <= kn/2 with weights chi(j) + chi(-j), the middle term j = kn/2
    counted once; an odd chi gives 0.
    """
    k = p.chi.modulus
    m = k * p.n
    j = np.arange(1, m // 2 + 1)
    values = p.chi.values
    weights = values[j % k] + values[-j % k]
    if m % 2 == 0:
        weights[-1] = values[(m // 2) % k]
    total, err = _power_sum(np.log(np.sin(np.pi * j / m)), p.s, weights, _LOG_SIN_ERR,
                            "L_n({s!r}, chi)")
    return Evaluation(complex(total), float(err))


def _check_strip(s: complex):
    if not (0.0 < s.real < 1.0):
        raise HypothesisError(f"s = {s!r} outside the strip 0 < Re s < 1")


def _xi_n(p: GraphLParams, factor: Evaluation) -> Evaluation:
    """xi_n(s, chi) = (pi/kn)^s factor L_n(s, chi), factor = (pi/k)^{-s/2} Gamma(s/2).

    The one copy of the xi_n formula; factor does not depend on n.
    """
    s = p.s
    ln = graph_l_n(p)
    scale = cmath.exp(s * math.log(math.pi / (p.chi.modulus * p.n)))
    value = scale * factor.value * ln.value
    err = abs(scale) * (abs(factor.value) * ln.abs_error_estimate
                        + abs(ln.value) * factor.abs_error_estimate)
    require_finite_result(value, err, "xi_n({s!r}, chi)", s)
    return Evaluation(value, err)


def graph_xi_n(p: GraphLParams, *, allow_outside_strip: bool = False) -> Evaluation:
    """xi_n(s, chi) = n^{-s} (pi/k)^{s/2} Gamma(s/2) L_n(s, chi)."""
    if not allow_outside_strip:
        _check_strip(p.s)
    return _xi_n(p, _gamma_factor(p.s, p.chi.modulus))


def asymptotic_l_n(p: GraphLParams, *, l0=None, l2=None) -> Evaluation:
    """Two-term approximation 2 (kn/pi)^s (L(s) + (s/6)(kn/pi)^{-2} L(s-2)).

    l0 and l2 are L(s, chi) and L(s-2, chi) when the caller has them.
    """
    s = p.s
    kn = p.chi.modulus * p.n
    if l0 is None:
        l0 = l_function(s, p.chi)
    if l2 is None:
        l2 = l_function(s - 2.0, p.chi)
    scale = cmath.exp(s * math.log(kn / math.pi))
    corr = (s / 6.0) * (math.pi / kn) ** 2
    value = 2.0 * scale * (l0.value + corr * l2.value)
    err = 2.0 * abs(scale) * (l0.abs_error_estimate + abs(corr) * l2.abs_error_estimate)
    return Evaluation(value, err)


def _alpha(s: complex, k: int, factor: Evaluation, l2) -> Evaluation:
    """alpha = (s/3) (pi/k)^2 factor L(s-2), factor = (pi/k)^{-s/2} Gamma(s/2)."""
    pref = (s / 3.0) * (math.pi / k) ** 2
    value = pref * factor.value * l2.value
    err = abs(pref) * (abs(factor.value) * l2.abs_error_estimate
                       + abs(l2.value) * factor.abs_error_estimate)
    return Evaluation(value, err)


def alpha(s: complex, chi: DirichletCharacter) -> Evaluation:
    """alpha(s, chi) = (s/3) (pi/k)^{2 - s/2} Gamma(s/2) L(s-2, chi)."""
    s = complex(s)
    factor = _gamma_factor(s, chi.modulus)
    return _alpha(s, chi.modulus, factor, l_function(s - 2.0, chi))


def _strip_ratio(s: complex, chi: DirichletCharacter, chib: DirichletCharacter, n: int,
                 factor: Evaluation, factor_b: Evaluation) -> float:
    """|xi_n(s, chi)| / |xi_n(1-s, chib)| from the gamma factors at s and 1-s."""
    num = abs(_xi_n(GraphLParams(chi=chi, n=n, s=s), factor).value)
    den = abs(_xi_n(GraphLParams(chi=chib, n=n, s=1.0 - s), factor_b).value)
    if den <= _RATIO_GUARD:
        raise HypothesisError(f"|xi_n(1-s)| = {den:g} below the division guard")
    return num / den


def xi_ratio(s: complex, chi: DirichletCharacter, n: int) -> float:
    """|xi_n(s, chi)| / |xi_n(1-s, conj chi)| in the critical strip."""
    s = complex(s)
    _check_strip(s)
    k = chi.modulus
    return _strip_ratio(s, chi, chi.conjugate(), n,
                        _gamma_factor(s, k), _gamma_factor(1.0 - s, k))


@dataclass(frozen=True)
class RatioRow:
    sigma: float
    t: float
    n: int
    ratio: float
    abs_ratio_minus_1: float
    near_zero: bool
    alpha_ratio: float
    two_xi_abs: float


def ratio_experiment(chi: DirichletCharacter, s_grid, n_list):
    """Tabulate the xi_n ratio over (s, n) with limit diagnostics per s.

    near_zero flags grid points with |L(s, chi)| < 1e-6, separating the
    two regimes of the ratio limit (driven by xi vs by alpha).
    """
    rows = []
    chib = chi.conjugate()
    k = chi.modulus
    for s in s_grid:
        s = complex(s)
        _require_even_primitive(chi)  # xi(s, chi) needs it even when n_list is empty
        factor, factor_b = _gamma_factor(s, k), _gamma_factor(1.0 - s, k)
        lv = l_function(s, chi)
        a_num = abs(_alpha(s, k, factor, l_function(s - 2.0, chi)).value)
        a_den = abs(_alpha(1.0 - s, k, factor_b, l_function(-1.0 - s, chib)).value)
        alpha_ratio = a_num / a_den if a_den > 0.0 else math.inf
        two_xi = 2.0 * abs(_xi_from_l(s, factor, lv).value)
        near = abs(lv.value) < NEAR_ZERO_THRESHOLD
        if n_list:
            _check_strip(s)
        for n in n_list:
            r = _strip_ratio(s, chi, chib, n, factor, factor_b)
            rows.append(RatioRow(
                sigma=s.real, t=s.imag, n=n, ratio=r,
                abs_ratio_minus_1=abs(r - 1.0), near_zero=near,
                alpha_ratio=alpha_ratio, two_xi_abs=two_xi,
            ))
    return rows


# ---------------------------------------------------------------------------
# General finite graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LaplacianSpectrum:
    """Eigenvalues of a combinatorial Laplacian, sorted ascending.

    Both fields are read-only float64 arrays (copies of what was passed), so
    == is identity.  frequency_eigenvalues, for cycle spectra only, holds the
    nonzero eigenvalues as 4 sin^2(pi j / m), j = 1..m-1.
    """

    eigenvalues: np.ndarray
    frequency_eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        for name in ("eigenvalues", "frequency_eigenvalues"):
            if getattr(self, name) is None:
                continue
            lams = np.array(getattr(self, name), dtype=np.float64)
            lams.flags.writeable = False
            if not (np.isfinite(lams).all() and (lams >= 0.0).all()):
                raise HypothesisError("Laplacian eigenvalues must be finite and nonnegative")
            object.__setattr__(self, name, lams)
        if (self.eigenvalues[1:] < self.eigenvalues[:-1]).any():
            raise HypothesisError("eigenvalues must be sorted ascending")

    def nonzero(self):
        # a connected graph on m vertices has lambda_2 >= 4 / (m diam) > 4 / m^2
        # (B. Mohar, Graphs Combin. 7, 1991), so 1/m^2 refuses none of them
        tol = min(1e-8, 1.0 / max(self.eigenvalues.size, 1) ** 2)
        zeros = np.count_nonzero(self.eigenvalues <= tol)
        if zeros != 1:
            raise DisconnectedGraphError(
                f"expected exactly one zero eigenvalue, found {zeros}"
            )
        return self.eigenvalues[1:]


def graph_l_general(spectrum: LaplacianSpectrum, chi: DirichletCharacter,
                    s: complex, ordering: str = "ascending") -> Evaluation:
    """L_G(s, chi) = sum_{j=1}^{m-1} chi(j) lambda_j^{-s}.

    ordering picks how the nonzero eigenvalues are indexed: "ascending"
    (the literal reading of "ordered") or "frequency" (4 sin^2(pi j / m),
    available for cycle spectra only).
    """
    s = _require_finite(s)
    if chi.modulus < 3:
        raise HypothesisError("modulus must be >= 3")
    if ordering == "ascending":
        lams = spectrum.nonzero()
    elif ordering == "frequency":
        if spectrum.frequency_eigenvalues is None:
            raise HypothesisError("frequency ordering is only defined for cycle spectra")
        spectrum.nonzero()  # connectivity check
        lams = spectrum.frequency_eigenvalues
    else:
        raise HypothesisError(f"unknown ordering {ordering!r}")
    j = np.arange(1, lams.size + 1)
    weights = chi.values[j % chi.modulus]
    total, err = _power_sum(np.log(lams), s, weights, _EIGEN_ERR, "L_G({s!r}, chi)")
    return Evaluation(complex(total), float(err))


def cycle_spectrum(m: int) -> LaplacianSpectrum:
    """Full Laplacian spectrum of the cycle C_m, in closed form.

    The Laplacian of C_m is circulant with first row (2, -1, 0, ..., 0, -1),
    so its eigenvalues are 4 sin^2(pi j / m), j = 0..m-1 (P. J. Davis,
    Circulant Matrices, 1979).  sin(pi (m - j) / m) = sin(pi j / m), so
    each is computed at min(j, m - j), keeping the sine argument in
    (0, pi/2] as graph_l_n does; _EIGEN_ERR bounds their relative error.
    """
    if m < 3:
        raise HypothesisError("cycle needs at least 3 vertices")
    if m > _MAX_CYCLE:
        raise RangeError(f"m = {m} exceeds the cycle cap {_MAX_CYCLE}")
    j = np.arange(1, m)
    freq = 4.0 * np.sin(np.pi * np.minimum(j, m - j) / m) ** 2
    return LaplacianSpectrum(eigenvalues=np.concatenate(([0.0], np.sort(freq))),
                             frequency_eigenvalues=freq)
