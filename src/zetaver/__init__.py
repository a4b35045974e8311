"""zetaver: verification-grade numerics for the Riemann zeta and modified
Hurwitz zeta functions and the identities that tie them together.

Layers: `special` (base functions), `quadrature` (the integration engine),
`identities` (contour and product-moment verifiers), `afe` (approximate
functional equations, kernel projections, power means), `fourier`
(coefficient constructions and Parseval checks), `suites`/`cli` (batch
verification with CSV/JSON reports), `oracle` (extended-precision tier).
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    PoleError,
    PoleTooCloseError,
    ZetaverError,
)
from .special import (
    bernoulli_numbers,
    beta_integral,
    chi,
    dirichlet_kernel,
    fourier_coeff_a,
    gamma,
    hurwitz_zeta,
    hurwitz_zeta1,
    kernel_index,
    lgamma,
    riemann_zeta,
)
from .quadrature import QuadResult, integrate_finite
from .identities import (
    IdentityReport,
    f_contour,
    f_series,
    i1_asymptotic_check,
    mellin_tail_closed_form,
    moment_rhs_terms,
    remark_219_check,
    unit_interval_recursion,
    verify_katsurada,
    verify_quadratic_moment,
    verify_quadruple_moment,
    verify_square_identity,
    verify_triple_moment,
)
from .afe import (
    afe_hurwitz_residual,
    afe_zeta_residual,
    lemma3_integral,
    power_mean_Ik,
    power_mean_Jk,
    projection_identity_check,
    s1_sum,
    theorem1_check,
    weak_afe_residual,
)
from .fourier import (
    highfreq_tail_check,
    parseval_fourth_moment,
    parseval_second_moment,
    qn_continued,
    qn_direct,
    rane_representation,
    tail_lemma_check,
    theorem2_check,
)
from .suites import GridSpec, ReportFile, SuiteSpec, list_suites, run_suite

__version__ = "0.1.0"
