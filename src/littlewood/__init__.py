"""Exact-arithmetic toolkit for a geometric attack on the Littlewood conjecture.

The conjecture asks whether, for every pair of reals (alpha, beta),
liminf_n n*||n*alpha||*||n*beta|| = 0; equivalently whether the cubic
f(x, y, z) = x*(alpha*x - y)*(beta*x - z) takes arbitrarily small nonzero
values at integer points.  This package builds the objects of one concrete
method for producing such points -- continued-fraction approximation
lines, a quadric cone inside the sublevel set {0 < |f| <= eps}, certified
entry times, and an lcm-time lattice point -- and mechanically checks the
sufficient condition that would make the method fire, with brute-force
oracles alongside every step.

All number-theoretic decisions (signs, comparisons, memberships) are made
in exact arithmetic.  Floating point appears only in displayed values
(Levy quotients, the cartan bound_2e_eps13 column, the grid check's
min_margin) and in the CSV writer's log10 guess of a decimal exponent,
which integer arithmetic then checks.
"""

__version__ = "0.1.0"

from .exactnum import (  # noqa: E402
    DyadicInterval,
    SurdSum,
    certified_sign,
)
from .cfrac import (  # noqa: E402
    CFSpec,
    cf_expand,
    convergents,
    error_term,
    levy_quotient,
)
from .lattice import (  # noqa: E402
    LatticePoint,
    Pair,
    brute_min_scan,
    cartan_measure,
    dirichlet_search,
    f_eval,
    m_transform,
)
from .cone import (  # noqa: E402
    ConeParams,
    InclusionRun,
    base_tangency,
    cone_contains,
    phi,
)
from .entrytime import (  # noqa: E402
    entry_time,
    line_gamma,
    transversality_check,
)
from .certificate import (  # noqa: E402
    b3_infeasibility_scan,
    certificate_search,
    theorem_check,
    verify_certificate,
)
from .numspec import parse_number_spec  # noqa: E402

__all__ = [
    "DyadicInterval", "SurdSum", "certified_sign",
    "CFSpec", "cf_expand", "convergents", "error_term", "levy_quotient",
    "LatticePoint", "Pair", "brute_min_scan", "cartan_measure", "dirichlet_search",
    "f_eval", "m_transform",
    "ConeParams", "InclusionRun", "base_tangency", "cone_contains", "phi",
    "entry_time", "line_gamma", "transversality_check",
    "b3_infeasibility_scan", "certificate_search",
    "theorem_check", "verify_certificate",
    "parse_number_spec",
]
