"""Exact zeta polynomials from period polynomials of level-one cusp forms,
with certificates of their zero loci by Descartes root isolation in
integers, and a truncated Habiro-ring engine for the toric and Chebyshev
Frobenius-lift structures.

The exported names are resolved on first use (PEP 562), so ``import
zetapoly`` loads no submodule and each command loads only what it runs.
The two names that several submodules share, the supported weights and
``UnsupportedWeightError``, are defined here, so sharing them loads no
submodule either.
"""

import importlib

# weights k with dim S_k = 1 for PSL(2,Z)
ONE_DIM_WEIGHTS = (12, 16, 18, 20, 22, 26)


class UnsupportedWeightError(ValueError):
    pass


_EXPORTS = {
    "exactcore": ("RatPoly", "is_self_inversive"),
    "modforms": (
        "QExpansion",
        "eisenstein_qexp",
        "delta_qexp",
        "cuspform_basis",
        "hecke_Tm",
        "eigenform",
        "lambda_numeric",
        "period_polynomial_numeric",
        "eichler_integral_numeric",
    ),
    "periods": (
        "PeriodSpace",
        "CFIQuotient",
        "slash_action",
        "relations_kernel",
        "odd_period_polynomial",
        "cfi_quotient",
    ),
    "rvtransform": (
        "ZetaPolyRecord",
        "ScaledPoly",
        "series_coefficients",
        "rv_polynomial",
        "functional_equation_defect",
        "zeta_projective_space",
        "gamma_c",
    ),
    "zerocert": (
        "Certificate",
        "unit_circle_certify",
        "critical_line_certify",
        "critical_line_roots",
    ),
    "habiro": (
        "HabiroTrunc",
        "CycloInt",
        "cyclotomic_poly",
        "habiro_r",
        "habiro_qinv",
        "eval_at_root",
        "psi_toric",
        "chebyshev_T",
        "psi_chebyshev",
        "frobenius_congruence_check",
        "involution_invariance_check",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
