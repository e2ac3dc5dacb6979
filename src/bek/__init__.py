"""Exact verification toolkit for Bernoulli and Euler convolution identities.

The package computes Bernoulli, Euler, and Genocchi numbers and
polynomials over exact rationals, evaluates both sides of a registry of
convolution identities as polynomials in x, checks the umbral shift and
difference-operator lemmas behind them, and cross-validates the Dirichlet
mixed-moment formula by seeded Monte Carlo.  The `bek` console script
exposes the same checks for batch runs.
"""

from __future__ import annotations

from .exactmath import (
    Poly,
    Rational,
    binomial,
    harmonic,
    harmonic_second,
    harmonic_shifted,
    pochhammer,
    poly,
    poly_eval,
)
from .identities import (
    REGISTRY,
    DomainError,
    IdentityReport,
    IdentitySpec,
    UnknownIdentityError,
    build_points,
    eval_corollary,
    eval_dunne_schubert,
    eval_eq72,
    eval_theorem1,
    eval_theorem2,
    eval_theorem3,
    eval_theorem4,
    gamma_sum_identity,
    verify,
)
from .sequences import (
    SequenceCache,
    bernoulli_number,
    bernoulli_poly,
    euler_number,
    euler_poly,
    euler_poly_at_zero,
    genocchi_number,
)
from .stochastic import (
    MomentEstimate,
    MomentQuery,
    dirichlet_moment_exact,
    dirichlet_moment_mc,
    normalization_check,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "IdentityReport",
    "IdentitySpec",
    "MomentEstimate",
    "MomentQuery",
    "Poly",
    "REGISTRY",
    "Rational",
    "SequenceCache",
    "UnknownIdentityError",
    "__version__",
    "bernoulli_number",
    "bernoulli_poly",
    "binomial",
    "build_points",
    "dirichlet_moment_exact",
    "dirichlet_moment_mc",
    "eval_corollary",
    "eval_dunne_schubert",
    "eval_eq72",
    "eval_theorem1",
    "eval_theorem2",
    "eval_theorem3",
    "eval_theorem4",
    "euler_number",
    "euler_poly",
    "euler_poly_at_zero",
    "gamma_sum_identity",
    "genocchi_number",
    "harmonic",
    "harmonic_second",
    "harmonic_shifted",
    "normalization_check",
    "pochhammer",
    "poly",
    "poly_eval",
    "verify",
]
