"""Spectral L-functions of cyclic graphs, Dirichlet L-functions, and
character power-sum experiments."""

from .characters import DirichletCharacter, conductor, enumerate_characters, gauss_sum
from .char_sums import (
    ExactSum,
    binomial_expansion_check,
    corollary5_scan,
    corollary6_check,
    cos_power_sum,
    cos_scan,
    faulhaber_rhs,
    s_power_sum,
    s_power_sum_range,
)
from .dirichlet import (
    completed_xi,
    find_critical_zero,
    l_function,
    ratio_monotonicity_scan,
    rhs_decreasing_scan,
)
from .errors import (
    ComputationError,
    CyclospecError,
    DisconnectedGraphError,
    DomainError,
    HypothesisError,
    NoZeroFoundError,
    PoleError,
    RangeError,
    UsageError,
)
from .graph import (
    GraphLParams,
    LaplacianSpectrum,
    alpha,
    asymptotic_l_n,
    cycle_spectrum,
    graph_l_general,
    graph_l_n,
    graph_xi_n,
    ratio_experiment,
    xi_ratio,
)
from .special import (
    Evaluation,
    binomial_series_coeff,
    complex_gamma,
    hurwitz_zeta,
    riemann_zeta,
)

__version__ = "0.1.0"
