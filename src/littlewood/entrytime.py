"""Approximation lines through a Dirichlet point and their first entry
into the cone.

The line through P0 = (x0, y0, z0) with the order-2n convergent direction
is gamma_n(t) = (x0 - t, y0 - t*c_2n(alpha), z0 - t*c_2n(beta)), t in
[0, x0-1].  Membership of gamma_n(t) in the cone is the quadratic
inequality

    A t^2 + 2 B t + C >= 0,
    A = phi - e_a^2 - e_b^2,
    B = phi (N - x0) + e_a U0 + e_b V0,
    C = phi (N - x0)^2 - U0^2 - V0^2,

with e_a = e_2n(alpha), e_b = e_2n(beta) the (positive) even-order error
terms.  Under the transversality condition

    sqrt(N) (N - 1)  <=  sqrt(2 eps) / (2 max(e_a, e_b)),

that is the integer comparison N (N - 1)^2 <= floor(eps / (2 e^2)) with
e = max(e_a, e_b), A is positive and the discriminant D_n = 4 (B^2 - A C)
is positive, so the first entry time is the root tau_n = (-2B + sqrt(D_n))
/ (2A).  Everything is decided exactly; tau itself is reported as a
certified interval.

The cubic variant drops the cone and asks for first entry of the line into
the full body {|f| <= eps}, which means locating roots of the cubic
(x0 - t)(U0 - e_a t)(V0 - e_b t) = +-eps by certified bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import rootfind
from .cfrac import CFSpec, Convergent, ErrorTerm, _below, convergents, cf_expand, error_term
from .cone import ConeParams
from .exactnum import (
    DyadicInterval,
    QuadraticSurd,
    SurdSum,
    _inverse_square_floor,
    as_surdsum,
    certified_sign,
    fixed_enclosure,
)
from .lattice import DirichletPoint, ParameterError, as_quadratic_surd

__all__ = [
    "NontransversalConfigurationError",
    "NonpositiveDenominatorError",
    "ApproxLine",
    "EntryTimeReport",
    "AngleReport",
    "CubicEntryReport",
    "approx_line",
    "line_gamma",
    "transversality_check",
    "discriminant",
    "entry_time",
    "angle",
    "cubic_entry_time",
]


class NontransversalConfigurationError(RuntimeError):
    """Entry time requested for a line that may miss the cone."""


class NonpositiveDenominatorError(RuntimeError):
    """The quadratic's leading coefficient is not positive."""


@dataclass(frozen=True)
class ApproxLine:
    """Line through a Dirichlet point with an order-2n convergent direction."""

    n: int
    P0: DirichletPoint | None
    alpha: QuadraticSurd
    beta: QuadraticSurd
    c_alpha: Fraction
    c_beta: Fraction
    q2n_alpha: int
    q2n_beta: int
    p2n_alpha: int
    p2n_beta: int
    e_alpha: ErrorTerm
    e_beta: ErrorTerm

    @property
    def x0(self) -> int:
        return self.P0.point.x


def _convergent_2n(spec: CFSpec, n: int, name: str) -> Convergent:
    """Convergent of order 2n; a rational whose expansion is shorter has none."""
    quotients = cf_expand(spec, 2 * n + 1)
    if len(quotients) <= 2 * n:
        raise ParameterError(
            f"{name} = {spec.value()} is rational with {len(quotients)} partial "
            f"quotients: it has no convergent of order 2n = {2 * n}"
        )
    return convergents(quotients)[2 * n]


def approx_line(alpha_spec: CFSpec, beta_spec: CFSpec, n: int, P0: DirichletPoint | None) -> ApproxLine:
    """Bundle the order-2n data; even order keeps both error terms >= 0.

    With P0 = None the line carries the order-2n data alone, which is all
    transversality needs; ``dataclasses.replace(line, P0=P0)`` attaches a
    Dirichlet point later without recomputing it.
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    ca = _convergent_2n(alpha_spec, n, "alpha")
    cb = _convergent_2n(beta_spec, n, "beta")
    ea = error_term(alpha_spec, 2 * n)
    eb = error_term(beta_spec, 2 * n)
    if ea.sign < 0 or eb.sign < 0:
        raise ParameterError("even-order error terms must be nonnegative")
    return ApproxLine(
        n,
        P0,
        as_quadratic_surd(alpha_spec),
        as_quadratic_surd(beta_spec),
        ca.as_fraction(),
        cb.as_fraction(),
        ca.q,
        cb.q,
        ca.p,
        cb.p,
        ea,
        eb,
    )


def line_gamma(line: ApproxLine, t: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """gamma_n(t), exact.  Callers may evaluate outside [0, x0-1] for
    diagnostics; the segment semantics live in the membership checks."""
    t = Fraction(t)
    x0, y0, z0 = tuple(line.P0.point)
    return (x0 - t, y0 - t * line.c_alpha, z0 - t * line.c_beta)


def _error_value(e) -> SurdSum:
    if isinstance(e, ErrorTerm):
        return e.value
    return as_surdsum(e)


def _transversality_budget(epsilon, e_alpha, e_beta, cap: int) -> int:
    """K = min(floor(eps / (2 e^2)), cap) with e = max(e_a, e_b): the
    transversality condition at N is the integer comparison N (N-1)^2 <= K
    whenever cap >= N (N-1)^2.  e = 0 (rational directions, no bound)
    gives the cap; eps <= 0 gives 0."""
    epsilon = Fraction(epsilon)
    ea = _error_value(e_alpha)
    eb = _error_value(e_beta)
    emax = eb if _below(ea, eb) else ea
    if fixed_enclosure(emax)[0] < 0:
        emax = emax.abs()  # only negative inputs: the condition squares e
    if epsilon <= 0:
        return cap if emax.is_zero() else 0
    return _inverse_square_floor(emax, epsilon / 2, cap)


def transversality_check(N: int, epsilon, e_alpha, e_beta) -> bool:
    """Exact verdict of sqrt(N)(N-1) <= sqrt(2 eps)/(2 max(e_a, e_b)).

    Squared, it says N (N-1)^2 <= eps / (2 e^2) with e = max(e_a, e_b), and
    the left side is an integer, so it is N (N-1)^2 <= floor(eps / (2 e^2)):
    one exact floor, capped at N (N-1)^2.  A tie is transversal.
    """
    if N < 2:
        raise ParameterError("N must be >= 2")
    v = N * (N - 1) ** 2
    return v <= _transversality_budget(epsilon, e_alpha, e_beta, v)


def _membership_coeffs(line: ApproxLine, params: ConeParams) -> tuple[SurdSum, SurdSum, SurdSum]:
    ea = line.e_alpha.value
    eb = line.e_beta.value
    U0, V0 = line.P0.U0, line.P0.V0
    slack = params.N - line.x0
    A = as_surdsum(params.phi) - ea * ea - eb * eb
    B = as_surdsum(params.phi * slack) + ea * U0 + eb * V0
    C = as_surdsum(params.phi * slack * slack) - U0 * U0 - V0 * V0
    return A, B, C


def discriminant(line: ApproxLine, params: ConeParams) -> SurdSum:
    """D_n = 4 (B^2 - A C), exactly."""
    A, B, C = _membership_coeffs(line, params)
    return 4 * (B * B - A * C)


@dataclass(frozen=True)
class EntryTimeReport:
    """First entry of the line into the cone.

    tau is a certified interval (degenerate [0,0] when P0 is already
    inside); d_n = 4 (B^2 - AC), denominator = A and B keep their exact
    handles so chain comparisons downstream (:meth:`tau_vs`) stay exact.
    """

    n: int
    N: int
    already_inside: bool
    d_n: SurdSum
    d_n_sign: int
    denominator: SurdSum
    t_minus: DyadicInterval | None
    t_plus: DyadicInterval | None
    tau: DyadicInterval
    _B: SurdSum

    def tau_vs(self, k, strict: bool = False) -> bool:
        """Exact comparison tau <= k (or < k): sqrt(d_n) vs 2 (A k + B)."""
        k = Fraction(k)
        if self.already_inside:
            return 0 < k if strict else 0 <= k
        rhs = self.denominator * k + self._B
        if certified_sign(rhs) < 0:
            return False
        cmp = certified_sign(self.d_n - 4 * (rhs * rhs))
        return cmp < 0 if strict else cmp <= 0


def entry_time(line: ApproxLine, params: ConeParams, rel_tol: Fraction = Fraction(1, 10**12)) -> EntryTimeReport:
    """Entry time tau_n as a certified interval of relative width <= rel_tol.

    Requires the transversality condition; with it the denominator is
    provably positive.  If P0 already satisfies the membership inequality
    the first entry is immediate and tau = 0 by convention.
    """
    if not transversality_check(params.N, params.epsilon, line.e_alpha, line.e_beta):
        raise NontransversalConfigurationError(
            f"n={line.n}, N={params.N}: the line may miss the cone"
        )
    A, B, C = _membership_coeffs(line, params)
    if certified_sign(A) <= 0:
        raise NonpositiveDenominatorError("phi - e_a^2 - e_b^2 must be positive")
    D = 4 * (B * B - A * C)
    d_sign = certified_sign(D)
    c_sign = certified_sign(C)

    already_inside = c_sign >= 0
    t_minus = t_plus = None
    if d_sign > 0:
        t_minus, t_plus = _root_intervals(A, B, D, rel_tol)
    if already_inside:
        tau = DyadicInterval(0, 0, 0)
    else:
        # C < 0 forces D = 4(B^2 - AC) > 0, so t_plus exists
        tau = t_plus
    return EntryTimeReport(
        line.n, params.N, already_inside, D, d_sign, A, t_minus, t_plus, tau, B,
    )


def _root_intervals(
    A: SurdSum, B: SurdSum, D: SurdSum, rel_tol: Fraction
) -> tuple[DyadicInterval, DyadicInterval]:
    """Certified intervals for both roots (-2B -+ sqrt(D)) / (2A)."""
    bits = 128
    while True:
        a_iv = A.interval(bits)
        d_iv = D.interval(bits)
        if a_iv.lo_m <= 0 or d_iv.lo_m < 0:
            bits *= 2
            continue
        sq = d_iv.sqrt(bits)
        minus2b = (-2 * B).interval(bits)
        den = a_iv.scale(2)
        tm = (minus2b - sq).divide(den, bits)
        tp = (minus2b + sq).divide(den, bits)
        scale = max(abs(tp.lo), abs(tp.hi), Fraction(1, 10**6))
        if tp.width <= rel_tol * scale and tm.width <= rel_tol * max(
            abs(tm.lo), abs(tm.hi), Fraction(1, 10**6)
        ):
            return tm, tp
        if bits > 1 << 16:
            raise ParameterError("entry time interval failed to converge")
        bits *= 2


@dataclass(frozen=True)
class AngleReport:
    """Angle between the approximation line and the irrational axis."""

    theta_lo: float
    theta_hi: float
    cos_interval: DyadicInterval
    cos_at_most_one: bool

    @property
    def theta(self) -> float:
        return (self.theta_lo + self.theta_hi) / 2


def angle(line: ApproxLine, bits: int = 192) -> AngleReport:
    """theta_n = arccos((1 + a*c_a + b*c_b) / (|(1,a,b)| |(1,c_a,c_b)|))."""
    a = as_surdsum(line.alpha)
    b = as_surdsum(line.beta)
    ca, cb = line.c_alpha, line.c_beta
    num = 1 + a * line.c_alpha + b * line.c_beta
    den_sq_axis = 1 + a * a + b * b
    den_sq_dir = as_surdsum(1 + ca * ca + cb * cb)
    cauchy_schwarz = certified_sign(num * num - den_sq_axis * den_sq_dir) <= 0
    den_iv = den_sq_axis.interval(bits).sqrt(bits) * den_sq_dir.interval(bits).sqrt(bits)
    cos_iv = num.interval(bits).divide(den_iv, bits)
    c_lo = min(1.0, max(-1.0, float(cos_iv.lo)))
    c_hi = min(1.0, max(-1.0, float(cos_iv.hi)))
    theta_lo = math.acos(c_hi)
    theta_hi = math.acos(c_lo)
    for _ in range(4):  # pad float endpoints outward
        theta_lo = math.nextafter(theta_lo, -math.inf)
        theta_hi = math.nextafter(theta_hi, math.inf)
    return AngleReport(max(0.0, theta_lo), theta_hi, cos_iv, cauchy_schwarz)


@dataclass(frozen=True)
class CubicEntryReport:
    """First entry of the line into the full body {|f| <= eps}."""

    epsilon: Fraction
    tau_cubic: tuple[Fraction, Fraction] | None
    entered_at_zero: bool
    boundary_roots: tuple[tuple[Fraction, Fraction, int], ...]  # (lo, hi, level sign)
    no_entry: bool
    at_most_tau_cone: bool | None


def cubic_entry_time(
    line: ApproxLine,
    epsilon,
    cone_report: EntryTimeReport | None = None,
    tol: Fraction = Fraction(1, 10**12),
) -> CubicEntryReport:
    """Smallest t in [0, x0-1] with |f(gamma_n(t))| <= eps.

    Along the line, f(gamma_n(t)) = (x0 - t)(U0 - e_a t)(V0 - e_b t); the
    boundary crossings are roots of that cubic at levels +-eps, isolated by
    certified sign-change bisection.  Absence of an entry inside the
    segment is a reported outcome, not an error.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    ea = line.e_alpha.value
    eb = line.e_beta.value
    U0, V0 = line.P0.U0, line.P0.V0
    x0 = line.x0
    # (x0 - t) * (U0 - ea t) * (V0 - eb t), ascending coefficients
    g = _poly_mul(_poly_mul([as_surdsum(x0), as_surdsum(-1)], [U0, -ea]), [V0, -eb])

    g0 = rootfind.poly_eval(g, Fraction(0))
    if certified_sign(g0 * g0 - epsilon * epsilon) <= 0:
        verdict = _leq_verdict((Fraction(0), Fraction(0)), cone_report)
        return CubicEntryReport(epsilon, (Fraction(0), Fraction(0)), True, (), False, verdict)

    hi = Fraction(x0 - 1)
    upper = list(g)
    upper[0] = upper[0] - epsilon
    lower = list(g)
    lower[0] = lower[0] + epsilon
    roots: list[tuple[Fraction, Fraction, int]] = []
    for coeffs, level in ((upper, 1), (lower, -1)):
        for lo_r, hi_r in rootfind.isolate_roots(coeffs, Fraction(0), hi, tol):
            roots.append((lo_r, hi_r, level))
    roots.sort(key=lambda r: r[0])
    if not roots:
        return CubicEntryReport(epsilon, None, False, (), True, None)
    first = (roots[0][0], roots[0][1])
    verdict = _leq_verdict(first, cone_report)
    return CubicEntryReport(epsilon, first, False, tuple(roots), False, verdict)


def _poly_mul(p: list[SurdSum], q: list[SurdSum]) -> list[SurdSum]:
    out = [as_surdsum(0)] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            out[i + j] = out[i + j] + as_surdsum(ci) * as_surdsum(cj)
    return out


def _leq_verdict(
    tau_cubic: tuple[Fraction, Fraction], cone_report: EntryTimeReport | None
) -> bool | None:
    """tau_cubic <= tau_cone within 1e-9, on the certified intervals."""
    if cone_report is None:
        return None
    return tau_cubic[1] <= cone_report.tau.hi + Fraction(1, 10**9)
