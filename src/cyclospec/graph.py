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
from .dirichlet import completed_xi, l_function
from .errors import DisconnectedGraphError, HypothesisError, PoleError, RangeError
from .special import Evaluation, _require_finite, complex_gamma, require_finite_result

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
_SPECTRUM_ZERO_TOL = 1e-8


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
        chi = self.chi
        if chi.modulus < 3:
            raise HypothesisError("modulus must be >= 3")
        if not chi.is_primitive:
            raise HypothesisError(f"character ({chi.modulus},{chi.index}) is not primitive")
        if not chi.is_even and not self.allow_odd:
            raise HypothesisError(f"character ({chi.modulus},{chi.index}) is odd")
        object.__setattr__(self, "s", _require_finite(self.s))


def graph_l_n(p: GraphLParams) -> Evaluation:
    """L_n(s, chi) = sum_{j=1}^{kn-1} chi(j) sin(pi j / kn)^{-s}."""
    s = p.s
    m = p.chi.modulus * p.n
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    max_abs = 0.0
    for j in range(1, m):
        v = p.chi(j)
        if v == 0.0:
            continue
        # sin argument in (0, 1): the real log gives the principal branch
        try:
            term = v * cmath.exp(-s * math.log(math.sin(math.pi * j / m)))
        except (OverflowError, ValueError):  # the exponent overflowed
            raise RangeError(f"L_n({s!r}, chi) overflows") from None
        a = abs(term)
        if a > max_abs:
            max_abs = a
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    err = 4e-16 * m * max_abs
    require_finite_result(total, err, f"L_n({s!r}, chi)")
    return Evaluation(total, err)


def graph_xi_n(p: GraphLParams, *, allow_outside_strip: bool = False) -> Evaluation:
    """xi_n(s, chi) = n^{-s} (pi/k)^{s/2} Gamma(s/2) L_n(s, chi)."""
    s = p.s
    if not (0.0 < s.real < 1.0) and not allow_outside_strip:
        raise HypothesisError(f"s = {s!r} outside the strip 0 < Re s < 1")
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real) and int(s.real) % 2 == 0:
        raise PoleError(f"Gamma(s/2) pole at s = {s.real:g}")
    k = p.chi.modulus
    g = complex_gamma(s / 2.0)
    ln = graph_l_n(p)
    pref = cmath.exp(-s * math.log(p.n)) * cmath.exp((s / 2.0) * math.log(math.pi / k))
    value = pref * g.value * ln.value
    err = abs(pref) * (abs(g.value) * ln.abs_error_estimate + abs(ln.value) * g.abs_error_estimate)
    require_finite_result(value, err, f"xi_n({s!r}, chi)")
    return Evaluation(value, err)


def asymptotic_l_n(p: GraphLParams) -> Evaluation:
    """Two-term approximation 2 (kn/pi)^s (L(s) + (s/6)(kn/pi)^{-2} L(s-2))."""
    s = p.s
    kn = p.chi.modulus * p.n
    l0 = l_function(s, p.chi)
    l2 = l_function(s - 2.0, p.chi)
    scale = cmath.exp(s * math.log(kn / math.pi))
    corr = (s / 6.0) * (math.pi / kn) ** 2
    value = 2.0 * scale * (l0.value + corr * l2.value)
    err = 2.0 * abs(scale) * (l0.abs_error_estimate + abs(corr) * l2.abs_error_estimate)
    return Evaluation(value, err)


def alpha(s: complex, chi: DirichletCharacter) -> Evaluation:
    """alpha(s, chi) = (s/3) (pi/k)^{2 - s/2} Gamma(s/2) L(s-2, chi)."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real) and int(s.real) % 2 == 0:
        raise PoleError(f"Gamma(s/2) pole at s = {s.real:g}")
    k = chi.modulus
    g = complex_gamma(s / 2.0)
    lv = l_function(s - 2.0, chi)
    pref = (s / 3.0) * cmath.exp((2.0 - s / 2.0) * math.log(math.pi / k))
    value = pref * g.value * lv.value
    err = abs(pref) * (abs(g.value) * lv.abs_error_estimate + abs(lv.value) * g.abs_error_estimate)
    return Evaluation(value, err)


def xi_ratio(s: complex, chi: DirichletCharacter, n: int) -> float:
    """|xi_n(s, chi)| / |xi_n(1-s, conj chi)| in the critical strip."""
    s = complex(s)
    if not (0.0 < s.real < 1.0):
        raise HypothesisError(f"s = {s!r} outside the strip 0 < Re s < 1")
    num = abs(graph_xi_n(GraphLParams(chi=chi, n=n, s=s)).value)
    den = abs(graph_xi_n(GraphLParams(chi=chi.conjugate(), n=n, s=1.0 - s)).value)
    if den <= _RATIO_GUARD:
        raise HypothesisError(f"|xi_n(1-s)| = {den:g} below the division guard")
    return num / den


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
    for s in s_grid:
        s = complex(s)
        lv = abs(l_function(s, chi).value)
        a_num = abs(alpha(s, chi).value)
        a_den = abs(alpha(1.0 - s, chib).value)
        alpha_ratio = a_num / a_den if a_den > 0.0 else math.inf
        two_xi = 2.0 * abs(completed_xi(s, chi).value)
        near = lv < NEAR_ZERO_THRESHOLD
        for n in n_list:
            r = xi_ratio(s, chi, n)
            rows.append(RatioRow(
                sigma=s.real, t=s.imag, n=n, ratio=r,
                abs_ratio_minus_1=abs(r - 1.0), near_zero=near,
                alpha_ratio=alpha_ratio, two_xi_abs=two_xi,
            ))
    return rows


# ---------------------------------------------------------------------------
# General finite graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplacianSpectrum:
    """Eigenvalues of a combinatorial Laplacian, sorted ascending.

    frequency_eigenvalues is populated for cycle spectra: the nonzero
    eigenvalues arranged as 4 sin^2(pi j / m), j = 1..m-1.
    """

    eigenvalues: tuple
    cycle_size: int | None = None
    frequency_eigenvalues: tuple | None = None

    def __post_init__(self):
        ev = tuple(float(x) for x in self.eigenvalues)
        if any(x < 0.0 for x in ev):
            raise HypothesisError("Laplacian eigenvalues must be nonnegative")
        if any(b < a for a, b in zip(ev, ev[1:])):
            raise HypothesisError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", ev)

    def nonzero(self):
        zeros = [x for x in self.eigenvalues if x <= _SPECTRUM_ZERO_TOL]
        if len(zeros) != 1:
            raise DisconnectedGraphError(
                f"expected exactly one zero eigenvalue, found {len(zeros)}"
            )
        return self.eigenvalues[1:]


def graph_l_general(spectrum: LaplacianSpectrum, chi: DirichletCharacter,
                    s: complex, ordering: str = "ascending") -> Evaluation:
    """L_G(s, chi) = sum_{j=1}^{m-1} chi(j) lambda_j^{-s}.

    ordering picks how the nonzero eigenvalues are indexed: "ascending"
    (the literal reading of "ordered") or "frequency" (4 sin^2(pi j / m),
    available for cycle spectra only).
    """
    s = complex(s)
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
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    max_abs = 0.0
    for j, lam in enumerate(lams, start=1):
        v = chi(j)
        if v == 0.0:
            continue
        term = v * cmath.exp(-s * math.log(lam))
        a = abs(term)
        if a > max_abs:
            max_abs = a
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return Evaluation(total, 4e-16 * (len(lams) + 1) * max_abs)


def cycle_spectrum(m: int) -> LaplacianSpectrum:
    """Full Laplacian spectrum of the cycle C_m by a dense eigensolver.

    The symmetric eigensolve is delegated to LAPACK (numpy.linalg.eigvalsh);
    callers cross-check against the closed form 4 sin^2(pi j / m).
    """
    if m < 3:
        raise HypothesisError("cycle needs at least 3 vertices")
    lap = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    lap[0, m - 1] -= 1.0
    lap[m - 1, 0] -= 1.0
    ev = np.linalg.eigvalsh(lap)
    ev = np.clip(ev, 0.0, None)
    ev[0] = 0.0
    computed = [float(x) for x in ev]

    # match the sorted nonzero eigenvalues back to frequency positions
    closed = [4.0 * math.sin(math.pi * j / m) ** 2 for j in range(1, m)]
    ranks = sorted(range(m - 1), key=lambda i: closed[i])
    freq = [0.0] * (m - 1)
    for pos, idx in enumerate(ranks):
        freq[idx] = computed[pos + 1]
    return LaplacianSpectrum(eigenvalues=tuple(computed), cycle_size=m,
                             frequency_eigenvalues=tuple(freq))
