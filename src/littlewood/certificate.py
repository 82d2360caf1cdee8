"""The sufficient-condition checker and its search drivers.

A single (n, N) cell is checked by the pipeline: transversality of the
order-2n line (one integer comparison, N (N-1)^2 <= floor(eps / (2 e^2))),
Dirichlet point for N, certified entry time tau_n, lcm time
t_n = lcm(q_2n(alpha), q_2n(beta)), and the chain

    tau_n <= 2^(n-1)  <  lambda^(2n)  <=  x0 - 2,

with lambda = (M+1)^2 from the pair's partial-quotient bound; the middle
link always holds (lambda >= 4).  If the chain holds, the lattice point
gamma_n(t_n) is constructed and 0 < |f| <= eps is certified directly; the
looser requirement
tau_n <= t_n < x0 is evaluated and reported alongside.  A search sweeps
(n, N) cells and either returns the first verified certificate or a
structured exhaustion report in which every cell records the first
condition that failed.

For pairs whose partial quotients are at most 3 (lambda = 16) the search
window prescribed by the degree-18 entry-time majorant is scanned, and the
contradiction system
    a u^4 + b u^2 + c  <=  2^(7/4) X^(1/8) + 2^(57/8) X^(39/16) + 2^(27/4) X^(9/8),
    2^(-5/8) X^(-3/16) <= u <= (x0 - 1)^(1/4),     X = 2 eps,
is refuted with certified interval arithmetic.  The left side increases
in u > 0, so the margin at the low end of the u-range decides it.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .cfrac import (
    CFSpec,
    InternalInconsistencyError,
    ProfileViolationError,
    _checked_lcm_time,
    _observed_M,
)
from .cone import ConeParams
from .entrytime import (
    ApproxLine,
    approx_line,
    entry_time,
    transversality_ceiling,
    transversality_check,
)
from .exactnum import (
    DyadicInterval,
    SurdSum,
    certified_sign,
    frac_pow_interval,
)
from .lattice import (
    LatticePoint,
    ParameterError,
    dirichlet_search,
    f_eval,
    surdsum_of,
)

__all__ = [
    "TheoremCheck",
    "SearchOutcome",
    "B3PairReport",
    "B3ScanReport",
    "FAIL_REASONS",
    "theorem_check",
    "certificate_search",
    "verify_certificate",
    "infeasibility_grid_check",
    "b3_infeasibility_scan",
]

# the reasons a cell can carry, one per failing link of theorem_check; a
# breach of the Dirichlet precondition N > 1/(2 eps) is a ParameterError,
# and the link 2^(n-1) < lambda^(2n) always holds, so neither has a reason
FAIL_REASONS = (
    "transversality-fail",
    "tau-too-large",
    "x0-too-small",
    "verify-fail",
)

# the most cells one n of a full grid may hold; a larger one is refused
MAX_FULL_GRID_CELLS = 20000


class TheoremCheck(namedtuple("TheoremCheck", "n N epsilon lam transversal x0 tau t_n chain_ok "
                              "direct_ok reason candidate verified",
                              defaults=(None, None, None, False, None, None, None, None))):
    """Outcome of one (n, N) cell of the sufficient condition: the entry
    time enclosure `tau`, `direct_ok` for tau <= t_n < x0, the failing
    link's `reason` (None for a certificate) and the LatticePoint
    `candidate` with its `verified` verdict."""

    __slots__ = ()


def verify_certificate(alpha, beta, epsilon, p: LatticePoint | Sequence) -> bool:
    """Certified 0 < |f(p)| <= eps, independent of how p was found."""
    fe = f_eval(alpha, beta, p, Fraction(epsilon))
    return fe.sign != 0 and fe.vs_epsilon in ("below", "equal")


def _gamma_lattice_point(line: ApproxLine, t_n: int) -> LatticePoint:
    """gamma_n(t_n) with exact integer coordinates (t_n is a multiple of
    both convergent denominators)."""
    x0, y0, z0 = line.P0.point
    ea, eb = line.e_alpha, line.e_beta
    if t_n % ea.q_n or t_n % eb.q_n:
        raise ParameterError("t_n must be a common multiple of q_2n's")
    return LatticePoint(
        x0 - t_n, y0 - (t_n // ea.q_n) * ea.p_n, z0 - (t_n // eb.q_n) * eb.p_n
    )


def theorem_check(
    alpha: CFSpec, beta: CFSpec, epsilon, line: ApproxLine, N: int
) -> TheoremCheck:
    """Run the full pipeline for the cell (line.n, N) and record what binds.

    ``line`` is ``approx_line(alpha, beta, n, None)``, shared by every cell
    of one n.  Precondition N > 1/(2 eps) (the Dirichlet condition);
    violating it is a parameter error.  The Dirichlet point is searched
    only for a transversal cell and then attached to the line; t_n is the
    lcm of the line's two order-2n denominators.  The recorded reason is
    the first failing link, so an exhaustion report shows which constraint
    binds where.
    """
    epsilon = Fraction(epsilon)
    n = line.n
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if n < 1:
        raise ParameterError("n must be >= 1")
    if N < 2 or 2 * epsilon * N <= 1:
        raise ParameterError(
            f"dirichlet-gap: need N >= 2 and N > 1/(2 eps); got N={N}"
        )
    M = max(_observed_M(alpha), _observed_M(beta))
    lam = (M + 1) ** 2

    if not transversality_check(N, epsilon, line.e_alpha, line.e_beta):
        return TheoremCheck(n, N, epsilon, lam, False, reason="transversality-fail")

    P0 = dirichlet_search(alpha, beta, N)
    line = line._replace(P0=P0)
    params = ConeParams.make(N, epsilon)
    rep = entry_time(line, params)
    t_n = _checked_lcm_time(line.e_alpha.q_n, line.e_beta.q_n, n, lam)
    x0 = P0.x

    base = dict(
        n=n, N=N, epsilon=epsilon, lam=lam, transversal=True, x0=x0, tau=rep.tau,
        t_n=t_n,
        direct_ok=rep.lattice_time_verdict(t_n, x0) == "lattice-time-in-cone",
    )
    # the chain tau_n <= 2^(n-1) < lambda^(2n) <= x0 - 2; its middle link
    # always holds: M >= 1, so lambda = (M+1)^2 >= 4 and lambda^(2n) >= 2^(4n)
    if not rep.tau_vs(1 << (n - 1)):
        return TheoremCheck(**base, chain_ok=False, reason="tau-too-large")
    if lam ** (2 * n) > x0 - 2:
        return TheoremCheck(**base, chain_ok=False, reason="x0-too-small")

    candidate = _gamma_lattice_point(line, t_n)
    # the certificate is the f verdict alone: the cone lies inside
    # {0 < |f| <= eps}, so a membership verdict would only repeat it
    good = verify_certificate(alpha.value(), beta.value(), epsilon, candidate)
    return TheoremCheck(
        **base, chain_ok=True, reason=None if good else "verify-fail",
        candidate=candidate, verified=good,
    )


class SearchOutcome(namedtuple("SearchOutcome", "cells found trivial_witness")):
    """Cells in the order run, the verified cell if any, and an x = 1 witness."""

    __slots__ = ()

    @property
    def exhausted(self) -> bool:
        return self.found is None


def _geometric_grid(N0: int, ceiling: int) -> list[int]:
    out = []
    N = N0
    while N <= ceiling:
        out.append(N)
        N *= 2
    if out and out[-1] != ceiling:
        out.append(ceiling)
    return out or [N0]


def certificate_search(
    alpha: CFSpec,
    beta: CFSpec,
    epsilon,
    n_max: int,
    strategy: str = "geometric",
    max_N: int = 10**6,
    n_min: int = 1,
) -> SearchOutcome:
    """Sweep n = n_min..n_max with, per n, N running from the Dirichlet
    floor up to the transversality ceiling (geometric doubling by default,
    every integer with strategy='full', refused past MAX_FULL_GRID_CELLS
    cells for one n).  The order-2n line is built once per n, sets the
    ceiling and is shared by every cell of that n.  Deterministic;
    exhaustion is an outcome, not an error."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if n_max < n_min:
        raise ParameterError(f"n_max must be >= n_min = {n_min}")
    if strategy not in ("geometric", "full"):
        raise ParameterError("strategy must be 'geometric' or 'full'")

    N0 = max(2, int(1 / (2 * epsilon)) + 1)
    if N0 > max_N:
        raise ParameterError(
            f"Dirichlet floor {N0} exceeds max_N={max_N}; raise max_N"
        )

    ya, ua = surdsum_of(alpha).nearest()
    yb, ub = surdsum_of(beta).nearest()
    trivial = None
    if certified_sign(ua.abs() * ub.abs() - epsilon) <= 0:
        trivial = LatticePoint(1, ya, yb)

    cells: list[TheoremCheck] = []
    found = None
    for n in range(n_min, n_max + 1):
        line = approx_line(alpha, beta, n, None)
        ceiling = transversality_ceiling(epsilon, line.e_alpha, line.e_beta, max_N)
        if ceiling < N0:
            grid = [N0]  # records the transversality failure at the floor
        elif strategy == "geometric":
            grid = _geometric_grid(N0, ceiling)
        else:
            if ceiling - N0 + 1 > MAX_FULL_GRID_CELLS:
                raise ParameterError(
                    f"full grid for n={n} has {ceiling - N0 + 1} cells, over "
                    f"{MAX_FULL_GRID_CELLS}; use --grid geometric or a smaller --max-N"
                )
            grid = list(range(N0, ceiling + 1))
        for N in grid:
            cell = theorem_check(alpha, beta, epsilon, line, N)
            cells.append(cell)
            if cell.verified:
                found = cell
                break
        if found:
            break
    return SearchOutcome(tuple(cells), found, trivial)


# -- the contradiction system of the degree-18 entry-time majorant --------


class GridCheckResult(namedtuple("GridCheckResult",
                                 "ok points empty_range min_margin u_lo u_hi")):
    """Outcome of :func:`infeasibility_grid_check`: `min_margin` is the
    float min over the grid of lhs_lo - rhs_hi, and `u_lo`, `u_hi` enclose
    the ends of the admissible u-range (u_hi None without an x0 >= 2)."""

    __slots__ = ()


def infeasibility_grid_check(
    X: Fraction, x0: int | None, points: int = 1000, bits: int = 160
) -> GridCheckResult:
    """Refute  a u^4 + b u^2 + c <= 2^(7/4) X^(1/8) + 2^(57/8) X^(39/16)
    + 2^(27/4) X^(9/8)  on the admissible range u_lo <= u <= u_hi, with
    a = 2^17.5 (X^4/4 + 2), b = 2^17.5 X^(5/2) and c = 4 sqrt(2) X.

    The grid of the range is the enclosure u_lo, then (for x0 given and
    points > 1) ``points`` equally spaced rationals from u_lo.hi to
    u_hi.lo when that stretch is nonempty, then u_hi; ``points`` in the
    result counts it.  The left side increases in u > 0, so the least
    margin over the grid sits at one of three of its members, and only
    those are evaluated: the cost does not grow with ``points``.  An
    empty admissible range refutes the system outright.  points < 1 is a
    ParameterError.
    """
    if points < 1:
        raise ParameterError(f"points must be >= 1, got {points}")
    X = Fraction(X)
    a = SurdSum.sqrt(2, coeff=(1 << 17) * (X**4 / 4 + 2))
    b = SurdSum.sqrt(2 * X, coeff=(1 << 17) * X**2)  # 2^17.5 X^2.5
    c = SurdSum.sqrt(2, coeff=4 * X)
    rhs = (
        frac_pow_interval(2, 7, 4, bits) * frac_pow_interval(X, 1, 8, bits)
        + frac_pow_interval(2, 57, 8, bits) * frac_pow_interval(X, 39, 16, bits)
        + frac_pow_interval(2, 27, 4, bits) * frac_pow_interval(X, 9, 8, bits)
    )
    # u_lo = 2^(-5/8) X^(-3/16)
    u_lo = frac_pow_interval(2, -5, 8, bits) * frac_pow_interval(X, -3, 16, bits)
    u_hi = None
    if x0 is not None:
        if x0 < 2:
            return GridCheckResult(True, 0, True, math.inf, u_lo, None)
        u_hi = frac_pow_interval(x0 - 1, 1, 4, bits)
        if u_hi.hi < u_lo.lo:
            return GridCheckResult(True, 0, True, math.inf, u_lo, u_hi)

    a_iv, b_iv, c_iv = a.interval(bits), b.interval(bits), c.interval(bits)

    def lhs_at(u_iv: DyadicInterval) -> DyadicInterval:
        u2 = u_iv * u_iv
        u4 = u2 * u2
        return a_iv * u4 + b_iv * u2 + c_iv

    # Lemma: the least margin over the grid is the least over `candidates`.
    # Products and sums of DyadicIntervals are exact, so when a_iv, b_iv,
    # c_iv and u_iv have positive lower ends, (lhs_at(u_iv) - rhs).lo is
    # exactly F(u_iv.lo), F(t) = a.lo t^4 + b.lo t^2 + c.lo - rhs.hi, and F
    # strictly increases for t > 0.  The interior grid members
    # point(lo_r + j step, bits) have lower ends floor((lo_r + j step)
    # 2^bits) 2^-bits, which do not decrease in j (floor is monotone), so
    # among them j = 0 has the least.  The grid's least lower end is
    # therefore that of u_lo, of point(lo_r, bits) or of u_hi (u_hi.lo may
    # lie below u_lo.lo when the two enclosures overlap), and all lower
    # ends are positive once these three are.
    count = 1
    candidates = [u_lo]
    if u_hi is not None and points > 1:
        lo_r, hi_r = u_lo.hi, u_hi.lo
        if hi_r > lo_r:
            candidates.append(DyadicInterval.point(lo_r, bits))
            count += points
        candidates.append(u_hi)
        count += 1
    if min(iv.lo_m for iv in (a_iv, b_iv, c_iv, *candidates)) <= 0:
        raise InternalInconsistencyError(
            "grid refutation needs positive coefficients and u-range"
        )
    margin = min((lhs_at(u_iv) - rhs).lo for u_iv in candidates)
    # float rounding is monotone, so this is the least float margin; one past
    # the float range shows as an infinity (the verdict is margin > 0, exact)
    try:
        shown = float(margin)
    except OverflowError:
        shown = math.inf if margin > 0 else -math.inf
    return GridCheckResult(margin > 0, count, False, shown, u_lo, u_hi)


class B3PairReport(namedtuple("B3PairReport", "alpha beta epsilon n_lo n_hi cells certificates "
                              "reason_counts x0_reference grid")):
    """One pair and eps of :func:`b3_infeasibility_scan`: its cells, the
    certificates among them, a dict of reason counts and the grid check."""

    __slots__ = ()


class B3ScanReport(namedtuple("B3ScanReport", "reports")):
    """The B3PairReports of a scan, in order."""

    __slots__ = ()

    @property
    def total_certificates(self) -> int:
        return sum(len(r.certificates) for r in self.reports)


def _admissible_n_lo(X: Fraction) -> int:
    # smallest n >= 1 with 2^n >= 2^(-5/8) X^(-3/16): X^3 * 2^(16n+10) >= 1
    n = 1
    while X**3 * Fraction(2) ** (16 * n + 10) < 1:
        n += 1
    return n


def b3_infeasibility_scan(
    pairs: Iterable[tuple[CFSpec, CFSpec]],
    epsilons: Iterable,
    u_points: int = 1000,
    max_N: int = 10**6,
) -> B3ScanReport:
    """For bounded-quotient pairs (all partial quotients <= 3, lambda = 16),
    sweep the admissible (n, N) window for every eps and independently
    refute the contradiction system on the admissible u-range (u_points,
    at least 1, sizes the grid that ``grid.points`` counts)."""
    if u_points < 1:
        raise ParameterError(f"u_points must be >= 1, got {u_points}")
    if max_N < 1:
        raise ParameterError(f"max_N must be >= 1, got {max_N}")
    reports: list[B3PairReport] = []
    pairs = list(pairs)
    epsilons = [Fraction(eps) for eps in epsilons]
    if any(eps <= 0 for eps in epsilons):
        raise ParameterError("epsilon must be positive")
    for alpha, beta in pairs:
        M = max(_observed_M(alpha), _observed_M(beta))
        if M > 3:
            raise ProfileViolationError(f"pair has a partial quotient {M} > 3")
    for alpha, beta in pairs:
        for eps in epsilons:
            X = 2 * eps
            n_lo = _admissible_n_lo(X)
            n_hi = max(n_lo, (max_N.bit_length() - 1) // 4)  # floor(log2 max_N) // 4
            outcome = certificate_search(
                alpha, beta, eps, n_max=n_hi, n_min=n_lo, max_N=max_N
            )
            x0_ref = max(
                (c.x0 for c in outcome.cells if c.x0 is not None), default=None
            )
            if x0_ref is None:
                x0_ref = dirichlet_search(
                    alpha, beta, max(2, int(1 / (2 * eps)) + 1)
                ).x
            grid = infeasibility_grid_check(X, x0_ref, points=u_points)
            counts = dict(Counter(c.reason for c in outcome.cells if c.reason))
            certs = tuple(c for c in outcome.cells if c.verified)
            reports.append(
                B3PairReport(
                    alpha, beta, eps, n_lo, n_hi, outcome.cells, certs,
                    counts, x0_ref, grid,
                )
            )
    return B3ScanReport(tuple(reports))
