"""The first entry of an approximation line into the cone.

The line through P0 = (x0, y0, z0) with the order-2n convergent direction
is gamma_n(t) = (x0 - t, y0 - t*c_2n(alpha), z0 - t*c_2n(beta)), t in
[0, x0-1], with c_2n = p_2n/q_2n.  Membership of gamma_n(t) in the cone
is the quadratic inequality

    A t^2 + 2 B t + C >= 0,
    A = phi - e_a^2 - e_b^2,
    B = phi (N - x0) + e_a U0 + e_b V0,
    C = phi (N - x0)^2 - U0^2 - V0^2,

with e_a = e_2n(alpha), e_b = e_2n(beta) the (positive) even-order error
terms, which a pair's :class:`littlewood.lattice.ApproxLine` holds.  Under
the transversality condition

    sqrt(N) (N - 1)  <=  sqrt(2 eps) / (2 max(e_a, e_b)),

that is the integer comparison N (N - 1)^2 <= floor(eps / (2 e^2)) with
e = max(e_a, e_b), A is positive.  entry_time checks A > 0 alone: with
C < 0 (P0 outside the cone) it makes D_n = 4 (B^2 - A C) positive, so the
first entry time is the root tau_n = (-2B + sqrt(D_n)) / (2A).
Everything is decided exactly; tau itself is reported as a certified interval.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cfrac import ErrorTerm, _below
from .cone import ConeParams
from .exactnum import (
    SIGN_BITS_START,
    DyadicInterval,
    SurdSum,
    _inverse_square_floor,
    as_surdsum,
    certified_sign,
    iroot,
)
from .lattice import ApproxLine, ParameterError

__all__ = [
    "NonpositiveDenominatorError",
    "EntryTimeReport",
    "line_gamma",
    "transversality_check",
    "transversality_ceiling",
    "entry_time",
]

_TAU_REL_TOL = Fraction(1, 10**12)  # relative width of every entry-time interval


class NonpositiveDenominatorError(RuntimeError):
    """The quadratic's leading coefficient is not positive."""


def line_gamma(line: ApproxLine, t: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """gamma_n(t), exact.  Callers may evaluate outside [0, x0-1] for
    diagnostics; the segment semantics live in the membership checks."""
    t = Fraction(t)
    x0, y0, z0 = line.P0.point
    ea, eb = line.e_alpha, line.e_beta
    return (x0 - t, y0 - t * Fraction(ea.p_n, ea.q_n), z0 - t * Fraction(eb.p_n, eb.q_n))


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
    if emax.interval(SIGN_BITS_START).lo_m < 0:
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


def transversality_ceiling(epsilon, e_alpha, e_beta, max_N: int) -> int:
    """Largest N <= max_N passing the transversality condition (1 when even
    N = 2 fails); max_N < 2 is a ParameterError.

    The condition is N (N-1)^2 <= K for one integer K (see
    transversality_check), and N (N-1)^2 increases with N.  With r =
    iroot(K, 3), r^3 <= K < (r+1)^3 puts the answer at r + 1 or r.
    """
    if max_N < 2:
        raise ParameterError("N must be >= 2")
    K = _transversality_budget(epsilon, e_alpha, e_beta, max_N * (max_N - 1) ** 2)
    if K < 2:
        return 1
    N = min(max_N, iroot(K, 3) + 1)
    while N * (N - 1) ** 2 > K:
        N -= 1
    return N


def _membership_coeffs(line: ApproxLine, params: ConeParams) -> tuple[SurdSum, SurdSum, SurdSum]:
    ea = line.e_alpha.value
    eb = line.e_beta.value
    U0, V0 = line.P0.U0, line.P0.V0
    slack = params.N - line.x0
    A = as_surdsum(params.phi) - ea * ea - eb * eb
    B = as_surdsum(params.phi * slack) + ea * U0 + eb * V0
    C = as_surdsum(params.phi * slack * slack) - U0 * U0 - V0 * V0
    return A, B, C


class EntryTimeReport(namedtuple("EntryTimeReport", "already_inside d_n_sign denominator tau B C")):
    """First entry of the line into the cone.

    tau is a certified interval enclosing the entering root of
    A t^2 + 2 B t + C (degenerate [0,0] when P0 is already inside), and
    d_n_sign is the sign of the discriminant.  The exact coefficients
    denominator = A, B and C are kept so chain comparisons downstream
    (:meth:`tau_vs`, :meth:`lattice_time_verdict`) stay exact.
    """

    __slots__ = ()

    def tau_vs(self, k) -> bool:
        """Exact comparison tau <= k.

        tau <= k means sqrt(D) <= 2 (A k + B).  Since A > 0,
        D - 4 (A k + B)^2 = -4 A (A k^2 + 2 B k + C), so it holds iff
        A k + B >= 0 and (A k + 2 B) k + C >= 0, and no SurdSum is
        squared.
        """
        k = Fraction(k)
        if self.already_inside:
            return 0 <= k
        slope = self.denominator * k + self.B
        # `<= 0` here would change nothing: at slope = A k + B = 0 the next
        # test reads (slope + B) k + C = B k + C = -D / (4 A), negative as
        # A > 0 and C < 0 make D = 4 (B^2 - A C) > 0, so both return False
        if certified_sign(slope) < 0:
            return False
        return certified_sign((slope + self.B) * k + self.C) >= 0

    def lattice_time_verdict(self, t_n: int, x0: int) -> str:
        """Where the lattice time t_n falls on the segment [0, x0 - 1]:
        before the entry, inside the cone (tau <= t_n < x0) or past the
        segment's end."""
        if not self.tau_vs(t_n):
            return "entry-after-lattice-time"
        if t_n < x0:
            return "lattice-time-in-cone"
        return "lattice-time-beyond-segment"


def entry_time(line: ApproxLine, params: ConeParams) -> EntryTimeReport:
    """Entry time tau_n as a certified interval of relative width <= 1e-12.

    Checks only A = phi - e_a^2 - e_b^2 > 0, which the callers'
    transversality verdict implies.  If P0 already satisfies the
    membership inequality (C >= 0), tau = 0 by convention; otherwise
    C < 0 and A > 0 force D = 4 (B^2 - A C) > 0, and tau is the entering root.
    """
    A, B, C = _membership_coeffs(line, params)
    if certified_sign(A) <= 0:
        raise NonpositiveDenominatorError("phi - e_a^2 - e_b^2 must be positive")
    D = 4 * (B * B - A * C)
    if certified_sign(C) >= 0:
        return EntryTimeReport(True, certified_sign(D), A, DyadicInterval(0, 0, 0), B, C)
    # C < 0 and A > 0 force D = 4(B^2 - AC) > 0, so the entering root exists
    return EntryTimeReport(False, 1, A, _entry_root(A, B, D), B, C)


def _entry_root(A: SurdSum, B: SurdSum, D: SurdSum) -> DyadicInterval:
    """Certified interval for the entering root (-2B + sqrt(D)) / (2A).
    ParameterError if 2**16 bits do not give it: no enclosure shows A > 0
    and D >= 0, or the interval stays too wide."""
    bits = 128
    while True:
        a_iv = A.interval(bits)
        d_iv = D.interval(bits)
        if a_iv.lo_m > 0 and d_iv.lo_m >= 0:
            two_a = DyadicInterval(a_iv.lo_m, a_iv.hi_m, a_iv.exp - 1)  # 2A, exactly
            tau = ((-2 * B).interval(bits) + d_iv.sqrt(bits)).divide(two_a, bits)
            if tau.width <= _TAU_REL_TOL * max(abs(tau.lo), abs(tau.hi), Fraction(1, 10**6)):
                return tau
        if bits > 1 << 16:
            raise ParameterError("entry time interval failed to converge")
        bits *= 2
