"""Exact zeta polynomials from period polynomials of level-one cusp forms,
with Sturm-sequence certification of their zero loci, and a truncated
Habiro-ring engine for the toric and Chebyshev Frobenius-lift structures.
"""

from .exactcore import RatPoly, is_self_inversive
from .modforms import (
    QExpansion,
    eisenstein_qexp,
    delta_qexp,
    cuspform_basis,
    hecke_Tm,
    eigenform,
    lambda_numeric,
    period_polynomial_numeric,
    eichler_integral_numeric,
)
from .periods import (
    MoebiusGen,
    PeriodSpace,
    CFIQuotient,
    slash_action,
    relations_kernel,
    odd_period_polynomial,
    cfi_quotient,
)
from .rvtransform import (
    ZetaPolyRecord,
    ScaledPoly,
    series_coefficients,
    rv_polynomial,
    functional_equation_defect,
    zeta_projective_space,
    gamma_c,
)
from .zerocert import (
    Certificate,
    sturm_count,
    unit_circle_certify,
    critical_line_certify,
    critical_line_roots,
    roots_numeric,
)
from .habiro import (
    HabiroTrunc,
    CycloInt,
    cyclotomic_poly,
    habiro_r,
    habiro_qinv,
    eval_at_root,
    chebyshev_T,
    psi_toric,
    psi_chebyshev,
    frobenius_congruence_check,
    chebyshev_compatibility_check,
    involution_invariance_check,
)

__version__ = "0.1.0"
