"""Continued fractions: expansion of quadratic irrationals, convergents,
exact error terms, growth / approximation-quality metrics, and the one
certified running-minimum scan of x*alpha mod 1 (:func:`residual_minima`),
whose integer bounds only nominate.  It scans x * prod ||x*alpha|| for the
minima and the bad-approximability constant, and max(||x*alpha||,
||x*beta||) for the Dirichlet points, and resumes from plain-data state.
It visits only the x of the thin sets {x : ||x*alpha|| small} that can
hold a record, listed by 2-D lattice reduction (:func:`_thin_set`).

Quadratic irrationals are expanded by the PQa recurrence on the integer
state (P + sqrt(D))/Q with Q | D - P**2 (Perron, *Die Lehre von den
Kettenbruechen*), which detects its own period on a repeated (P, Q), so
partial quotients of any order cost O(period).  Convergents p_n/q_n follow
the standard two-term recurrence

    p_n = a_n * p_{n-1} + p_{n-2},     q_n = a_n * q_{n-1} + q_{n-2}

with p_{-1} = 1, q_{-1} = 0, p_0 = a_0, q_0 = 1, and the error terms
e_n = alpha - p_n/q_n are kept as exact surd handles with certified signs
(positive at even n, negative at odd n) satisfying

    1/(2 q_n q_{n+1}) <= |e_n| <= 1/(q_n q_{n+1}).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import chain
from types import SimpleNamespace

from .exactnum import (
    SIGN_BITS_START,
    ParameterError,
    SurdSum,
    as_surdsum,
    certified_sign,
    iroot,
)

__all__ = [
    "ParameterError",
    "CFError",
    "ProfileViolationError",
    "InternalInconsistencyError",
    "CFSpec",
    "Convergent",
    "ErrorTerm",
    "BadProfile",
    "GrowthReport",
    "LEVY_AE_LOG",
    "cf_expand",
    "convergents",
    "convergent",
    "error_term",
    "growth_bounds_check",
    "levy_quotient",
    "bad_constant_estimate",
    "bad_constant_scan",
]

# Almost-every-alpha limit of log(q_n)/n (Levy); comparison line only.
LEVY_AE_LOG = math.pi**2 / (12 * math.log(2))


class CFError(Exception):
    """Continued-fraction layer errors."""


class ProfileViolationError(CFError):
    """A partial quotient exceeded the declared bound M."""


class InternalInconsistencyError(CFError):
    """A proven-impossible bound failed; indicates a bug, not bad input."""


class CFSpec(namedtuple("CFSpec", "surd preperiod period")):
    """A real number, given by its exact value or by its continued fraction.

    Either `surd` holds the value, a SurdSum that is rational or has one
    irrational term q1*sqrt(d), or `preperiod` (a_0 >= 0 first) and a
    nonempty `period`, all later quotients >= 1, hold the quotients of an
    eventually periodic expansion.  The form not given is computed on first
    use, so the quotients of a periodic spec never need its value.  A spec
    equals only a spec with the same fields, never a bare tuple.
    """

    def __new__(cls, surd: SurdSum | None = None, preperiod: tuple[int, ...] = (),
                period: tuple[int, ...] = ()) -> "CFSpec":
        if surd is None:
            ok = period and preperiod and preperiod[0] >= 0
            if not (ok and min(preperiod[1:] + period) >= 1):
                raise CFError("a periodic spec needs a_0 >= 0, a nonempty period "
                              "and partial quotients a_j >= 1 for j >= 1")
        elif sum(rad != 1 for rad, _ in surd.terms()) > 1:
            raise CFError("a spec value has at most one irrational term q1*sqrt(d)")
        return super().__new__(cls, surd, preperiod, period)

    @classmethod
    def _make(cls, iterable: Iterable) -> "CFSpec":
        # _replace builds through _make, so it is checked by __new__ too
        return cls(*iterable)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def from_surd(cls, x: SurdSum | Fraction | int) -> "CFSpec":
        return cls(as_surdsum(x))

    @classmethod
    def from_periodic(cls, preperiod: Iterable[int], period: Iterable[int]) -> "CFSpec":
        return cls(None, tuple(preperiod), tuple(period))

    def value(self) -> SurdSum | Fraction:
        """The exact real number this spec describes, a Fraction when it is
        rational."""
        return self._value

    # The spec's own memos, computed on first use: the fields never change,
    # so they stay valid, and they go when the spec goes.
    @cached_property
    def _value(self) -> SurdSum | Fraction:
        if self.surd is None:
            return _periodic_value(self.preperiod, self.period)
        return self.surd.rational_part() if self.surd.is_rational() else self.surd

    @cached_property
    def _cycle(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _cf_cycle(self)


def _periodic_value(preperiod: tuple[int, ...], period: tuple[int, ...]) -> SurdSum:
    """Exact value of an eventually periodic continued fraction.

    The purely periodic tail y = [period; period; ...] is the positive
    fixed point of the Mobius map given by the period's convergent matrix,
    hence the positive root of  C y^2 + (D - A) y - B = 0; the preperiod is
    then folded back by a_k + 1/x on the integer state of :func:`_cf_cycle`.
    """
    A, B, C, D = 1, 0, 0, 1  # identity; columns track (p_n p_{n-1}; q_n q_{n-1})
    for a in period:
        A, B, C, D = a * A + B, A, a * C + D, C
    # y = (A y + B) / (C y + D)  =>  C y^2 + (D - A) y - B = 0.  A nonempty
    # period of quotients >= 1 makes C >= 1 and B >= 1, so disc = (D - A)^2
    # + 4CB > (D - A)^2: the root (A - D + sqrt(disc)) / (2C) is positive
    # and the other negative.  Q = 2C divides disc - P^2 = 4CB.
    disc = (D - A) * (D - A) + 4 * C * B
    P, Q = A - D, 2 * C
    for a in reversed(preperiod):  # innermost first
        # a + 1/x = (a Q' - P + sqrt(disc)) / Q' with Q' = (disc - P^2) / Q
        Q = (disc - P * P) // Q
        P = a * Q - P
    return SurdSum({1: Fraction(P, Q), disc: Fraction(1, Q)})


def _cf_cycle(spec: CFSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Preperiod and period of the expansion of any spec.  A rational has
    its canonical (Euclid) quotients as preperiod and an empty period; a
    quadratic surd runs the PQa recurrence and stops at a repeated state."""
    if spec.surd is None:
        return spec.preperiod, spec.period
    quots: list[int] = []
    terms = dict(spec.surd.terms())
    r0 = terms.pop(1, Fraction(0))
    if not terms:
        p, q = r0.numerator, r0.denominator
        while q:
            a, rem = divmod(p, q)
            quots.append(a)
            p, q = q, rem
        return tuple(quots), ()
    # x = (a + b sqrt(d)) / c over integers, c > 0 and d squarefree, is
    # (P + sqrt(D)) / Q with D = (bc)^2 d, P = ac sgn(b), Q = c^2 sgn(b),
    # and Q divides D - P^2 = c^2 (b^2 d - a^2).  Each complete quotient
    # keeps D, so equal values have equal (P, Q): the first repeated pair
    # closes the period.
    ((d, r1),) = terms.items()
    c = math.lcm(r0.denominator, r1.denominator)
    a, b = int(r0 * c), int(r1 * c)
    sgn = 1 if b > 0 else -1
    D, P, Q = b * b * c * c * d, a * c * sgn, c * c * sgn
    root = math.isqrt(D)  # sqrt(D) lies in (root, root + 1)
    seen: dict[tuple[int, int], int] = {}
    while (P, Q) not in seen:
        seen[P, Q] = len(quots)
        # (P + sqrt(D)) / Q lies strictly between (P + root) / Q and (P +
        # root + 1) / Q, adjacent fractions over |Q| with no integer
        # strictly between them, so its floor is that of the lower one
        a = (P + root + (Q < 0)) // Q
        quots.append(a)
        # 1 / ((P + sqrt(D)) / Q - a) = (P' + sqrt(D)) / Q' with P' = aQ - P
        # and Q' = (D - P'^2) / Q, an integer: D - P'^2 = D - P^2 mod Q
        P = a * Q - P
        Q = (D - P * P) // Q
    i = seen[P, Q]
    return tuple(quots[:i]), tuple(quots[i:])


def cf_expand(spec: CFSpec, count: int) -> list[int]:
    """First `count` partial quotients a_0 .. a_{count-1}, exactly.

    A finite rational may exhaust earlier; the full (shorter) canonical
    expansion is returned in that case, which is the truncation notice.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    pre, per = spec._cycle
    out = list(pre[:count])
    if per:
        out += (per[i % len(per)] for i in range(count - len(out)))
    return out


class Convergent(namedtuple("Convergent", "n p q")):
    """One convergent p_n / q_n (always in lowest terms)."""

    __slots__ = ()

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


def convergents(quotients: Sequence[int]) -> list[Convergent]:
    """All convergents of a quotient list via the two-term recurrence."""
    if not quotients:
        raise ValueError("need at least a_0")
    if any(a < 1 for a in quotients[1:]):
        raise ValueError("partial quotients a_j must be >= 1 for j >= 1")
    out: list[Convergent] = []
    p_prev, q_prev = 1, 0
    p, q = quotients[0], 1
    out.append(Convergent(0, p, q))
    for n, a in enumerate(quotients[1:], start=1):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(Convergent(n, p, q))
    return out


def convergent(spec: CFSpec, n: int) -> Convergent:
    """The single convergent of order n of a CF spec."""
    quots = cf_expand(spec, n + 1)
    if len(quots) <= n:
        raise CFError(
            f"expansion has only {len(quots)} quotients; convergent {n} "
            f"does not exist"
        )
    return convergents(quots)[n]


class ErrorTerm(namedtuple("ErrorTerm", "n value sign p_n q_n q_next")):
    """The convergent p_n/q_n of order n and its exact error e_n = alpha -
    p_n/q_n (a SurdSum), with certified sign and the next denominator
    q_{n+1} (None when a rational expansion ends at n).

    Sign alternates: positive at even n, negative at odd n (zero only when
    a finite rational expansion terminates exactly at n).
    """

    __slots__ = ()

    def magnitude(self) -> SurdSum:
        return self.value if self.sign >= 0 else -self.value

    def bounds_ok(self) -> bool:
        """Exact check of 1/(2 q_n q_{n+1}) <= |e_n| <= 1/(q_n q_{n+1})."""
        if self.q_next is None:
            raise CFError("sandwich bounds need q_{n+1}")
        m = self.magnitude()
        lo = Fraction(1, 2 * self.q_n * self.q_next)
        hi = Fraction(1, self.q_n * self.q_next)
        return certified_sign(m - lo) >= 0 and certified_sign(m - hi) <= 0


def error_term(spec: CFSpec, n: int) -> ErrorTerm:
    """e_n = alpha - c_n as an exact handle; requires convergent n."""
    quots = cf_expand(spec, n + 2)
    if len(quots) <= n:
        raise CFError(f"expansion has only {len(quots)} quotients; need n={n}")
    convs = convergents(quots)
    c = convs[n]
    value = as_surdsum(spec.value()) - Fraction(c.p, c.q)
    sign = certified_sign(value)
    # only a rational's last convergent has e_n = 0
    if sign not in (0, 1 if n % 2 == 0 else -1):
        raise InternalInconsistencyError(
            f"error term sign {sign} breaks the (-1)^n alternation at n={n}"
        )
    q_next = convs[n + 1].q if len(convs) > n + 1 else None
    return ErrorTerm(n, value, sign, c.p, c.q, q_next)


class GrowthReport(namedtuple("GrowthReport", "ok n_max lam first_violation",
                              defaults=(None,))):
    """Outcome of the denominator growth check 2^((n-2)/2) <= q_n <= lambda^(n/2):
    `first_violation` is the first (n, "lower" | "upper") that fails, if any."""

    __slots__ = ()


def growth_bounds_check(spec: CFSpec, M: int, n_max: int) -> GrowthReport:
    """Verify 2^((n-2)/2) <= q_n <= ((M+1)^2)^(n/2) for all n <= n_max.

    Raises ProfileViolationError if some partial quotient exceeds M; the
    bound comparisons are done on squares so everything stays integral.
    """
    quots = cf_expand(spec, n_max + 1)
    for j, a in enumerate(quots):
        if j >= 1 and a > M:
            raise ProfileViolationError(f"a_{j} = {a} exceeds declared M = {M}")
    lam = (M + 1) ** 2
    for conv in convergents(quots):
        n, q = conv.n, conv.q
        if n >= 2 and q * q < (1 << (n - 2)):
            return GrowthReport(False, n_max, lam, (n, "lower"))
        if q * q > lam**n:
            return GrowthReport(False, n_max, lam, (n, "upper"))
    return GrowthReport(True, n_max, lam, None)


def levy_quotient(spec: CFSpec, n: int) -> float:
    """log(q_n)/n.  math.log on big ints carries ~1e-16 relative error,
    comfortably inside the 1e-12 contract."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = convergent(spec, n).q
    return math.log(q) / n


# -- certified residual scans ---------------------------------------------------


def _distances(A: int, xs: Sequence[int], S: int) -> list[int]:
    """D(x) = |x*A mod+- S| for each x of xs, S a power of two.  With A =
    floor(frac(alpha) * S), D(x) - x < S * ||x*alpha|| < D(x) + x for every
    x >= 1."""
    # frac(alpha) * S = A + d with 0 <= d < 1, so x*alpha = (x*A + t) / S
    # (mod 1) with 0 <= t = x*d < x.  D(x) = S * ||x*A / S||, and ||.|| is
    # 1-Lipschitz on R/Z, so |S * ||x*alpha|| - D(x)| < x.
    mask, half = S - 1, S >> 1
    return [P if P < half else S - P for P in [x * A & mask for x in xs]]


def _thin_set(A: int, T: int, a: int, b: int, S: int) -> list[range]:
    """The x in [a, b] (1 <= a <= b) with |x*A mod+- S| <= T, as ranges
    that hold each such x once.

    They are the points (x, y) of the lattice y = x*A (mod S) in the box
    [a, b] x [-T, T], one per x while 2T + 1 < S (two y of one x differ by
    a multiple of S).  A Lagrange-Gauss reduced basis (u, v) for the norm
    (x (2T + 1))**2 + (y W)**2, W = b - a + 1, under which the box is a
    square, meets the box in O(1 + sqrt(points)) lines p = c1 u + c2 v of
    fixed c2, and each line in one interval of c1: an arithmetic
    progression of x.
    """
    if 2 * T + 1 >= S:
        return [range(a, b + 1)]
    sx, sy = (2 * T + 1) ** 2, (b - a + 1) ** 2
    ux, uy, vx, vy = 1, A, 0, S
    nu, nv = sx + A * A * sy, S * S * sy
    while True:
        if nv < nu:
            ux, uy, vx, vy, nu, nv = vx, vy, ux, uy, nv, nu
        # v -= round(<u, v> / <u, u>) u; stop once v stays the longer
        k = (2 * (ux * vx * sx + uy * vy * sy) + nu) // (2 * nu)
        if k == 0:
            break
        vx, vy = vx - k * ux, vy - k * uy
        nv = vx * vx * sx + vy * vy * sy
    if ux < 0 or (ux == 0 and uy < 0):
        ux, uy = -ux, -uy
    if ux * vy - uy * vx < 0:
        vx, vy = -vx, -vy
    # now ux*vy - uy*vx = S, and (x, y) = c1 u + c2 v has c2 = (ux*y -
    # uy*x) / S: linear, so its extremes over the box are at corners
    c2_lo = -((ux * T + max(uy * a, uy * b)) // S)
    c2_hi = (ux * T - min(uy * a, uy * b)) // S
    out = []
    for c2 in range(c2_lo, c2_hi + 1):
        x0, y0 = c2 * vx, c2 * vy
        lo, hi = _span(ux, x0, a, b)
        y_lo, y_hi = _span(uy, y0, -T, T)
        lo, hi = max(lo, y_lo), min(hi, y_hi)
        if lo > hi:
            continue
        if ux:
            out.append(range(x0 + lo * ux, x0 + hi * ux + 1, ux))
        else:  # u = (0, S): one c1 at most, as 2T < S
            out.append(range(x0, x0 + 1))
    return out


def _span(k: int, base: int, lo: int, hi: int) -> tuple[float | int, float | int]:
    """The least and greatest integer c with lo <= k*c + base <= hi; an
    unbounded pair when k = 0 and base lies in [lo, hi], an empty one when
    it does not."""
    if k == 0:
        return (-math.inf, math.inf) if lo <= base <= hi else (1, 0)
    if k < 0:
        k, base, lo, hi = -k, -base, -hi, -lo
    return -((base - lo) // k), (hi - base) // k


class ResidualScan(SimpleNamespace):
    """Where a running-minimum scan stands: [1, X] is scanned, `bound` is
    the least integer upper bound on the scaled value met so far (None
    before the first x) and `best` the last record's value.  Plain data, so
    :func:`residual_minima` resumes it at X + 1.

    The scanned quantity is v(x) = x * prod ||x*alpha|| over the alphas
    (combine "product", one or two alphas) or m(x) = max(||x*alpha||,
    ||x*beta||) (combine "max", two alphas); it is scaled by S = 2**bits
    per residual.  The scan sets S from its range X: 2**64, or the least
    even power of two at or above X**2 once that is larger, so the slack x
    of the integer residual bounds stays at most S/x."""

    def __init__(self, alphas: tuple[SurdSum, ...], combine: str = "product", X: int = 0,
                 bound: int | None = None, best: SurdSum | None = None, bits: int = 64) -> None:
        super().__init__(alphas=alphas, combine=combine, X=X, bound=bound, best=best, bits=bits)


def _below(a: SurdSum, b: SurdSum) -> bool:
    """a < b, exactly; the memoised enclosures at SIGN_BITS_START decide
    unless they overlap."""
    sg = (a.interval(SIGN_BITS_START) - b.interval(SIGN_BITS_START)).sign_or_none()
    return (sg if sg is not None else certified_sign(a - b)) < 0


def _scaled_floor(alpha: SurdSum, bits: int) -> int:
    """floor(alpha * 2**bits), exactly.  At bits <= SIGN_BITS_START it is
    read from alpha's memoised enclosure [lo, hi] * 2**-exp there when
    lo >> g and hi >> g agree, g = exp - bits >= 0 (the floors of both ends
    of alpha * 2**bits, so of every point between); otherwise it is the
    exact floor."""
    if bits <= SIGN_BITS_START:
        iv = alpha.interval(SIGN_BITS_START)
        g = iv.exp - bits
        k = iv.lo_m >> g
        if k == iv.hi_m >> g:
            return k
    return (alpha * (1 << bits)).floor()


def _candidates(mults: list[int], is_max: bool, bound: int, a: int, b: int, S: int) -> list[int]:
    """The x in [a, b], sorted, that can hold a record of a scan whose
    bound is `bound` at scale S: for every record, D(x) < S ||x*alpha|| + x
    <= S ||x*alpha|| + b of some alpha, so its residuals put x in the thin
    set of that alpha at threshold T."""
    if is_max:
        # S m(x) < bound: both residuals are below bound / S, so x is in
        # the thin set of the first alpha and D(x) <= T for the second
        T = bound + b - 1
        mask, T2 = S - 1, 2 * T
        A, B = mults
        return sorted(
            [x for x in chain.from_iterable(_thin_set(A, T, a, b, S)) if (x * B + T) & mask <= T2]
        )
    # S**k x prod ||x*alpha|| < bound and x >= a: the least scaled residual
    # is below (bound / a)**(1/k) <= iroot(ceil(bound / a), k) + 1
    T = iroot(-(-bound // a), len(mults)) + b
    return sorted(set().union(*(chain.from_iterable(_thin_set(A, T, a, b, S)) for A in mults)))


def residual_minima(scan: ResidualScan, X: int) -> list[tuple[int, SurdSum, list]]:
    """Advance `scan` to X and return the (x, value, residuals) in (scan.X,
    X] where the value reaches a new strict minimum, exactly; ties keep the
    first.  `residuals` holds (alpha * x).nearest() per alpha.

    The range runs in blocks [a, 2a - 1].  Each block lists only the x that
    the bound at its start admits (:func:`_candidates`), screens them on
    exact integer bounds of their scaled values and confirms the survivors
    in exact arithmetic.  A scan whose best value is 0 has no further
    record and only advances X."""
    records: list[tuple[int, SurdSum, list]] = []
    is_max = scan.combine == "max"
    best, bound = scan.best, scan.bound
    # S = 2**bits >= X**2; a scale grown by g bits multiplies the scaled
    # value, and so its upper bound, by 2**g per residual factor
    bits = max(scan.bits, 2 * (X - 1).bit_length())
    if bound is not None:
        bound <<= (bits - scan.bits) * (1 if is_max else len(scan.alphas))
    S = 1 << bits
    # the multipliers A = floor(frac(alpha) * S) = floor(alpha * S) mod S
    # of _distances; at the scan's first scale, 2**64, alpha's memoised
    # enclosure gives the floor without a new SurdSum
    mults = [_scaled_floor(alpha, bits) % S for alpha in scan.alphas]
    a = scan.X + 1
    while a <= X and not (best is not None and best.is_zero()):
        b = min(2 * a - 1, X)
        xs = list(range(a, b + 1)) if bound is None else _candidates(mults, is_max, bound, a, b, S)
        dists = [_distances(A, xs, S) for A in mults]
        # integer bounds lo <= S value(x) <= hi for the max, and lo <=
        # S**k value(x) <= hi for a product of k residuals
        if is_max:
            d_max = [max(ds) for ds in zip(*dists)]
            lows = [t - x if t > x else 0 for t, x in zip(d_max, xs)]
        else:
            lows = xs
            for ds in dists:
                lows = [lo * (d - x) if d > x else 0 for lo, d, x in zip(lows, ds, xs)]
        # A record has lo <= its scaled value < the scaled best <= hi(x')
        # for every x' scanned before it, so lo < the running minimum of hi.
        # An x with lo at or above it is no record and its hi >= lo cannot
        # lower that minimum, so only the others need an upper bound.
        limit = math.inf if bound is None else bound
        for i in [i for i, lo in enumerate(lows) if lo < limit]:
            if lows[i] >= limit:
                continue
            x = xs[i]
            if is_max:
                hi = d_max[i] + x
            else:
                hi = x
                for ds in dists:
                    hi *= ds[i] + x
            limit = bound = min(limit, hi)
            residuals = [(alpha * x).nearest() for alpha in scan.alphas]
            mags = [u.abs() for _, u in residuals]
            if is_max:
                val = mags[1] if _below(mags[0], mags[1]) else mags[0]
            else:
                val = math.prod(mags, start=as_surdsum(x))
            if best is None or _below(val, best):
                records.append((x, val, residuals))
                best = val
                if val.is_zero():
                    break
        a = b + 1
    scan.X, scan.bound, scan.best, scan.bits = max(scan.X, X), bound, best, bits
    return records


def bad_constant_scan(spec: CFSpec, Q: int) -> tuple[SurdSum, int]:
    """Exact min of q*||q*alpha|| over 1 <= q <= Q and its (first) argmin."""
    if Q < 1:
        raise ParameterError("Q must be >= 1")
    q, best, _ = residual_minima(ResidualScan((as_surdsum(spec.value()),)), Q)[-1]
    return best, q


def bad_constant_estimate(spec: CFSpec, Q: int) -> Fraction:
    """Rational lower bound for min_{1<=q<=Q} q*||q*alpha|| (a scan bound,
    not the true infimum over all q)."""
    best, _ = bad_constant_scan(spec, Q)
    return best.interval(128).lo


class BadProfile(namedtuple("BadProfile", "M lam C_estimate")):
    """Partial-quotient bound M, lambda = (M+1)^2, and a positive rational
    lower-bound estimate for max(inf q||q*alpha||, inf q||q*beta||)."""

    __slots__ = ()

    def __new__(cls, M: int, lam: int, C_estimate: Fraction) -> "BadProfile":
        if lam != (M + 1) ** 2:
            raise InternalInconsistencyError("lambda must equal (M+1)^2")
        return super().__new__(cls, M, lam, C_estimate)

    @classmethod
    def _make(cls, iterable: Iterable) -> "BadProfile":
        # _replace builds through _make, so it is checked by __new__ too
        return cls(*iterable)


def _observed_M(spec: CFSpec) -> int:
    """Sup of partial quotients a_j (j >= 1).  The scan covers preperiod
    plus period, so this is the true sup; a purely periodic expansion
    (empty preperiod) repeats its a_0 as a later a_j."""
    pre, per = spec._cycle
    return max(pre[1:] + per, default=1)


def _checked_lcm_time(qa: int, qb: int, n: int, lam: int) -> int:
    """lcm(qa, qb) for the order-2n denominators qa and qb, after asserting
    the sandwich 2^(n-1) <= t_n <= lambda^(2n)."""
    t = math.lcm(qa, qb)
    if n >= 1 and t < (1 << (n - 1)):
        raise InternalInconsistencyError(f"t_{n} = {t} < 2^(n-1)")
    if t > lam ** (2 * n):
        raise InternalInconsistencyError(f"t_{n} = {t} > lambda^(2n)")
    return t
