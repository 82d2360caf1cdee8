"""Shared test numbers, small generators, the CSV reader, and the
Fraction-coefficient SurdSum ring, continued-fraction cycle, entry-time, entry-time comparator,
running-minimum (numpy and convergent), Dirichlet-point, transversality,
every-N certificate search, cone-row, u-grid, interval Horner and
surd-term enclosure oracles."""

import csv
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from littlewood import rootfind
from littlewood.certificate import GridCheckResult, theorem_check
from littlewood.cfrac import CFSpec, ResidualScan, _below, cf_expand, convergents
from littlewood.cone import InclusionRun, sample_point_coordinates
from littlewood.csvio import format_decimal
from littlewood.entrytime import (
    _error_value,
    _membership_coeffs,
    transversality_ceiling,
)
from littlewood.exactnum import (
    DyadicInterval,
    SurdSum,
    as_surdsum,
    certified_sign,
    frac_pow_interval,
)
from littlewood.lattice import (
    DirichletPoint,
    LatticePoint,
    Pair,
    ParameterError,
    TheoremViolationError,
)


def quad(a: int, b: int = 0, c: int = 1, d: int = 0) -> SurdSum:
    """(a + b*sqrt(d)) / c as a SurdSum."""
    return SurdSum.sqrt(d, Fraction(b, c)) + Fraction(a, c)


def surd_nearest_int(s) -> int:
    """Nearest integer to an exact number (rational ties round up)."""
    return as_surdsum(s).nearest()[0]


class FracSurd:
    """Oracle of SurdSum: the same ring on a dict of squarefree radicand ->
    nonzero Fraction coefficient (radicand 1 the rational part), each
    operation done in Fraction arithmetic coefficient by coefficient."""

    def __init__(self, terms=None):
        self.terms: dict[int, Fraction] = {}
        for rad, coef in (terms or {}).items():
            square, free = _squarefree_by_trial(rad)
            self._put(free, Fraction(coef) * square)

    def _put(self, rad: int, coef: Fraction) -> None:
        coef += self.terms.pop(rad, 0)
        if coef:
            self.terms[rad] = coef

    @staticmethod
    def of(x) -> "FracSurd":
        return x if isinstance(x, FracSurd) else FracSurd({1: x})

    def __add__(self, other) -> "FracSurd":
        out = FracSurd(self.terms)
        for rad, coef in FracSurd.of(other).terms.items():
            out._put(rad, coef)
        return out

    __radd__ = __add__

    def __neg__(self) -> "FracSurd":
        return self * -1

    def __sub__(self, other) -> "FracSurd":
        return self + -FracSurd.of(other)

    def __rsub__(self, other) -> "FracSurd":
        return FracSurd.of(other) + -self

    def __mul__(self, other) -> "FracSurd":
        out = FracSurd()
        for d1, c1 in self.terms.items():
            for d2, c2 in FracSurd.of(other).terms.items():
                g = math.gcd(d1, d2)
                out._put(d1 // g * (d2 // g), c1 * c2 * g)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FracSurd":
        return self * (1 / Fraction(other))

    def __pow__(self, k: int) -> "FracSurd":
        out = FracSurd({1: 1})
        for _ in range(k):
            out = out * self
        return out

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """[lo, hi] from integer square roots at 2**-bits, as Fractions."""
        lo = hi = Fraction(0)
        for rad, coef in self.terms.items():
            m = math.isqrt(rad << (2 * bits))
            r_lo, r_hi = Fraction(m, 1 << bits), Fraction(m + (m * m != rad << (2 * bits)), 1 << bits)
            lo += min(coef * r_lo, coef * r_hi)
            hi += max(coef * r_lo, coef * r_hi)
        return lo, hi

    def floor(self) -> int:
        """An irrational sum is no integer, so refining ends."""
        bits = 64
        while True:
            lo, hi = self.enclosure(bits)
            if math.floor(lo) == math.floor(hi):
                return math.floor(lo)
            bits *= 2

    def nearest(self) -> tuple[int, "FracSurd"]:
        m = (self + Fraction(1, 2)).floor()
        return m, self - m

    def interval(self, bits: int) -> DyadicInterval:
        """The enclosure on reduced coefficients, term by term."""
        return DyadicInterval.of_surd_terms(
            [(rad, c.numerator, c.denominator) for rad, c in self.terms.items()], bits
        )


def surd_terms_outward(terms, bits: int) -> tuple[int, int, int]:
    """(lo_m, hi_m, exp) of DyadicInterval.of_surd_terms(terms, bits) in its
    two-rounding form: each term's ends rounded outward by their own floor
    and ceiling divisions."""

    def outward(lo_num: int, hi_num: int, den: int, shift: int) -> tuple[int, int]:
        return (lo_num << shift) // den, -((-hi_num << shift) // den)

    work = bits + max(1, len(terms)).bit_length() + 4
    lo = hi = 0
    for rad, p, q in terms:
        if rad == 1:
            t_lo, t_hi = outward(p, p, q, work)
        else:
            m = math.isqrt(rad << 2 * work)  # sqrt(rad) in (m, m + 1) * 2**-work
            if p > 0:
                t_lo, t_hi = outward(m * p, (m + 1) * p, q, 0)
            else:
                t_lo, t_hi = outward((m + 1) * p, m * p, q, 0)
        lo += t_lo
        hi += t_hi
    return lo, hi, work


def _squarefree_by_trial(n: int) -> tuple[int, int]:
    """(s, r) with n = s*s*r and r squarefree, by plain trial division."""
    s, r, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            r *= p
        p += 1
    return s, r * n


SQRT2M1 = quad(-1, 1, 1, 2)  # sqrt(2) - 1 = [0; 2, 2, ...]
SQRT3M1 = quad(-1, 1, 1, 3)  # sqrt(3) - 1 = [0; 1, 2, 1, 2, ...]
GOLDENM1 = quad(-1, 1, 2, 5)  # (sqrt(5) - 1)/2 = [0; 1, 1, ...]

SPEC_SQRT2M1 = CFSpec.from_surd(SQRT2M1)
SPEC_SQRT3M1 = CFSpec.from_surd(SQRT3M1)
SPEC_GOLDENM1 = CFSpec.from_surd(GOLDENM1)

TEST_PAIRS = [
    (SPEC_SQRT2M1, SPEC_SQRT3M1),
    (SPEC_GOLDENM1, SPEC_SQRT2M1),
    (SPEC_GOLDENM1, SPEC_SQRT3M1),
]

# where the integer transversality verdicts are checked against the
# SurdSum oracle: two quadratic irrationals, the golden pair (equal error
# terms) and a pair with partial quotients <= 3
TRANSVERSALITY_PAIRS = [
    (SPEC_SQRT2M1, SPEC_SQRT3M1),
    (SPEC_GOLDENM1, SPEC_GOLDENM1),
    (CFSpec.from_periodic([0], [1, 3, 2]), CFSpec.from_periodic([0, 2], [3, 1])),
]
TRANSVERSALITY_EPSILONS = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10**6)]

# unit-interval quadratic irrationals with small radicands, for random picks
SURD_POOL = [
    quad(-1, 1, 1, 2),
    quad(-1, 1, 1, 3),
    quad(-2, 1, 1, 5),
    quad(-2, 1, 1, 6),
    quad(-2, 1, 1, 7),
    quad(-3, 1, 1, 10),
    quad(-1, 1, 2, 5),
    quad(-1, 1, 2, 7),
    quad(-3, 1, 2, 13),
]


def cf_cycle_floor_invert(x: SurdSum) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Oracle of cfrac._cf_cycle for a quadratic irrational x: the floor /
    invert / normalize recurrence on the canonical integer state (a, b, c)
    of (a + b*sqrt(d)) / c (d squarefree, c > 0, gcd(a, b, c) = 1), whose
    first repeated state closes the period."""
    terms = dict(x.terms())
    r0 = terms.pop(1, Fraction(0))
    ((d, r1),) = terms.items()
    c = math.lcm(r0.denominator, r1.denominator)
    a, b = int(r0 * c), int(r1 * c)

    def sign(A: int, B: int) -> int:  # of A + B*sqrt(d), by one squaring
        sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
        if sa == sb or sa == 0 or sb == 0:
            return sa or sb
        return sb if B * B * d > A * A else sa

    quots: list[int] = []
    seen: dict[tuple[int, int, int], int] = {}
    while (a, b, c) not in seen:
        seen[a, b, c] = len(quots)
        m = math.isqrt(b * b * d)
        t = m if b > 0 else -m - 1  # b*sqrt(d) lies in (t, t + 1)
        k = (a + t) // c
        if (a + t + 1) // c > k and sign(a - (k + 1) * c, b) >= 0:
            k += 1
        quots.append(k)
        # 1 / (x - k) = c (A - b sqrt(d)) / (A^2 - b^2 d) with A = a - k c
        A = a - k * c
        a, b, c = c * A, -c * b, A * A - b * b * d
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
    i = seen[a, b, c]
    return tuple(quots[:i]), tuple(quots[i:])


def rational_in_unit(rng, den_bits: int = 20) -> Fraction:
    den = 1 << den_bits
    return Fraction(rng.randrange(1, den), den)


def transversal_config(rng, require_segment: bool = True, n_range=(2, 5)):
    """Random transversal configuration (alpha, beta, line, params, report).

    Draws a pair, an N, a Dirichlet point and an order n, then picks eps
    just below the level at which P0 would sit inside the cone, so the
    entry time is positive and (when require_segment) lands in [0, x0-1].
    All qualifying predicates are checked exactly before returning.
    """
    from littlewood.cone import ConeParams
    from littlewood.entrytime import entry_time, transversality_check
    from littlewood.lattice import dirichlet_search

    for _ in range(2000):
        alpha, beta = rng.sample(SURD_POOL, 2)
        a_spec, b_spec = CFSpec.from_surd(alpha), CFSpec.from_surd(beta)
        N = rng.randrange(6, 60)
        p0 = dirichlet_search(alpha, beta, N)
        if p0.x < 3 or p0.x >= N:
            continue
        n = rng.randrange(*n_range)
        line = Pair(a_spec, b_spec).line(n)._replace(P0=p0)
        resid = (p0.U0 * p0.U0 + p0.V0 * p0.V0).interval(96)
        eps_star = resid.hi * N * (N - 1) ** 2 / (2 * (N - p0.x) ** 2)
        for theta in (Fraction(9, 10), Fraction(3, 4), Fraction(1, 2), Fraction(3, 10)):
            eps = Fraction(eps_star * theta).limit_denominator(10**12)
            if eps <= 0:
                continue
            if not transversality_check(N, eps, line.e_alpha, line.e_beta):
                continue
            params = ConeParams.make(N, eps)
            rep = entry_time(line, params)
            if rep.already_inside:
                continue
            if require_segment and not rep.tau_vs(line.x0 - 1):
                continue
            return a_spec, b_spec, line, params, rep
    raise AssertionError("no transversal configuration in 2000 draws")


def bisect_root_halving(coeffs, lo: Fraction, hi: Fraction, tol: Fraction):
    """Independent bisection oracle: halve [lo, hi] with Fraction
    arithmetic while its width exceeds tol, keeping the end whose sign
    differs from p(lo); an exact zero at a midpoint ends the search."""
    s_lo = rootfind.poly_sign_at(coeffs, lo)
    s_hi = rootfind.poly_sign_at(coeffs, hi)
    if s_lo == 0:
        return lo, lo
    if s_hi == 0:
        return hi, hi
    if s_lo == s_hi:
        raise ValueError("endpoints do not bracket a sign change")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s_mid = rootfind.poly_sign_at(coeffs, mid)
        if s_mid == 0:
            return mid, mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def horner_minmax(coeffs, t_lo: int, t_hi: int, bits: int) -> tuple[int, int]:
    """Oracle for ``rootfind._horner``: coefficient mantissa pairs (lo, hi)
    on one scale and the argument [t_lo, t_hi] * 2**-bits; every Horner
    step takes the min and max of all four corner products, whatever the
    signs, rounded outward by ``bits``."""
    lo = hi = 0
    for c_lo, c_hi in reversed(coeffs):
        p1, p2, p3, p4 = lo * t_lo, lo * t_hi, hi * t_lo, hi * t_hi
        lo = (min(p1, p2, p3, p4) >> bits) + c_lo
        hi = -(-max(p1, p2, p3, p4) >> bits) + c_hi
    return lo, hi


def entry_time_bisected(line, params, tol):
    """Independent entry-time oracle: bisection on the exact membership
    predicate of gamma_n(t) along [0, x0 - 1], down to width tol.

    The membership set on that range is a terminal segment, so the single
    boundary crossing brackets the entry time.
    """
    A, B, C = _membership_coeffs(line, params)
    member = lambda t: rootfind.poly_sign_at([C, 2 * B, A], t) >= 0
    if member(Fraction(0)):
        return Fraction(0), Fraction(0)
    hi = Fraction(line.x0 - 1)
    if not member(hi):
        raise ParameterError(f"no entry within [0, {hi}]")
    lo = Fraction(0)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if member(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def tau_vs_squared(line, params, k, strict: bool = False) -> bool:
    """The entry-time comparator tau <= k (or < k) by squaring: with
    D = 4 (B^2 - A C) and tau = (-2B + sqrt(D)) / (2A), tau <= k iff
    A k + B >= 0 and D - 4 (A k + B)^2 <= 0; tau = 0 when C >= 0."""
    A, B, C = _membership_coeffs(line, params)
    k = Fraction(k)
    if certified_sign(C) >= 0:
        return 0 < k if strict else 0 <= k
    rhs = A * k + B
    if certified_sign(rhs) < 0:
        return False
    cmp = certified_sign(4 * (B * B - A * C) - 4 * (rhs * rhs))
    return cmp < 0 if strict else cmp <= 0


ORACLE_CHUNK = 2**14  # x per numpy array of the oracles below
# The uint64 bounds below need x * 2**-64 < 1/x, the size of the residuals
# min q*||q*alpha|| looks at, so the numpy oracles stop at 2**32.
ORACLE_MAX_X = 2**32


def residual_chunks(alphas, start: int, X: int):
    """(xs, [(lo, hi) per alpha]) for consecutive chunks xs of [start, X]:
    lo <= 2**64 * ||x*alpha|| <= hi for every x, from fresh arrays per
    chunk by the integer argument beside cfrac._distances (the uint64
    product P = x * floor(frac(alpha) * 2**64), D = min(P, 2**64 - P),
    lo = max(D - x, 0), hi = D + x)."""
    if X > ORACLE_MAX_X:
        raise ParameterError(f"oracle range {X} exceeds 2**32, the uint64 bounds' range")
    mults = [np.uint64(((a - a.floor()) * (1 << 64)).floor()) for a in alphas]
    for first in range(start, X + 1, ORACLE_CHUNK):
        xs = np.arange(first, min(first + ORACLE_CHUNK, X + 1), dtype=np.uint64)
        bounds = []
        for A in mults:
            D = xs * A
            np.minimum(D, -D, out=D)
            bounds.append((np.maximum(D, xs) - xs, D + xs))
        yield xs, bounds


def residual_minima_full(scan: ResidualScan, X: int):
    """Running-minimum oracle of cfrac.residual_minima, the same contract
    by a linear scan: both bounds for every x of every numpy chunk, a
    float64 screen under an outward margin (1 + 2**-49 covers its
    rounding), then the same exact confirmation.  `scan.bound` holds its
    own float or uint64 screen bound."""
    exact = scan.combine == "max"
    if scan.bound is None:
        scan.bound = 2**64 - 1 if exact else math.inf
    margin = 1 if exact else 1 + 2.0**-49
    records = []
    best = scan.best
    for xs, bounds in residual_chunks(scan.alphas, scan.X + 1, X):
        if exact:
            (lo, hi), (b_lo, b_hi) = bounds
            np.maximum(lo, b_lo, out=lo)
            np.maximum(hi, b_hi, out=hi)
        else:
            lo = xs.astype(np.float64)
            hi = lo.copy()
            for b_lo, b_hi in bounds:
                lo *= b_lo
                hi *= b_hi
        keep = np.flatnonzero(lo <= scan.bound * margin)
        xs, lo, hi = xs[keep], lo[keep], hi[keep]
        runmin = np.minimum.accumulate(np.concatenate((np.array([scan.bound], hi.dtype), hi)))
        scan.bound = runmin[-1].item()
        for x in xs[lo <= runmin[:-1] * margin].tolist():
            residuals = [(a * x).nearest() for a in scan.alphas]
            mags = [u.abs() for _, u in residuals]
            if exact:
                val = mags[1] if _below(mags[0], mags[1]) else mags[0]
            else:
                val = math.prod(mags, start=as_surdsum(x))
            if best is None or _below(val, best):
                records.append((x, val, residuals))
                best = val
    scan.X, scan.best = max(scan.X, X), best
    return records


def convergent_minima(spec: CFSpec, Q: int):
    """One-alpha running-minimum oracle at any Q, for an irrational alpha:
    the (q, q*||q*alpha||, [(alpha * q).nearest()]) records of
    cfrac.residual_minima over 1 <= q <= Q, read off the convergent
    denominators.  q = 1 = q_0 gives ||alpha|| < 1/2, and by Legendre a q
    with q*||q*alpha|| < 1/2 has alpha within 1/(2 q**2) of p/q, so p/q is
    a convergent p_n/q_n with q = k q_n and value k**2 times that of q_n:
    every record is a convergent denominator."""
    alpha = as_surdsum(spec.value())
    # q_n >= F_(n+1) > 1.6**(n-1), so 2 * bitlen(Q) + 2 quotients pass Q
    dens = sorted({c.q for c in convergents(cf_expand(spec, 2 * Q.bit_length() + 2)) if c.q <= Q})
    records, best = [], None
    for q in dens:
        y, u = (alpha * q).nearest()
        val = q * u.abs()
        if best is None or certified_sign(val - best) < 0:
            records.append((q, val, [(y, u)]))
            best = val
    return records


def dirichlet_search_chunked(alpha, beta, N: int) -> DirichletPoint:
    """Independent Dirichlet-point oracle: scan x = 1..N in numpy chunks,
    nominate every x whose two integer lower bounds are at most 2**64 /
    sqrt(N), and return the first nominee whose squared residuals are both
    <= 1/N exactly."""
    if N < 2:
        raise ParameterError("N must be >= 2")
    alpha, beta = as_surdsum(alpha), as_surdsum(beta)
    bound = Fraction(1, N)
    # lo <= 2**64 / sqrt(N) is lo <= isqrt(2**128 // N) for an integer lo
    cap = np.uint64(math.isqrt((1 << 128) // N))
    for xs, ((a_lo, _), (b_lo, _)) in residual_chunks((alpha, beta), 1, N):
        for x in xs[(a_lo <= cap) & (b_lo <= cap)].tolist():
            ya, ua = (alpha * x).nearest()
            if certified_sign(ua * ua - bound) > 0:
                continue
            yb, ub = (beta * x).nearest()
            if certified_sign(ub * ub - bound) > 0:
                continue
            return DirichletPoint(LatticePoint(x, ya, yb), N, ua, ub)
    raise TheoremViolationError(f"no Dirichlet point for N={N}")


def transversality_check_surd(N: int, epsilon, e_alpha, e_beta) -> bool:
    """Independent transversality oracle: sqrt(N)(N-1) <= sqrt(2 eps) /
    (2 max(e_a, e_b)) squared to 4 e^2 N (N-1)^2 <= 2 eps and decided by
    one certified sign of a SurdSum product."""
    if N < 2:
        raise ParameterError("N must be >= 2")
    epsilon = Fraction(epsilon)
    ea = _error_value(e_alpha)
    eb = _error_value(e_beta)
    emax = ea if certified_sign(ea - eb) >= 0 else eb
    if certified_sign(emax) == 0:
        return True  # rational directions: the right-hand side is infinite
    lhs = 4 * (emax * emax) * (N * (N - 1) ** 2)
    return certified_sign(lhs - 2 * epsilon) <= 0


def transversality_ceiling_bisected(epsilon, e_alpha, e_beta, max_N: int) -> int:
    """Independent ceiling oracle: bisection on the oracle above for the
    largest N <= max_N that passes (1 when N = 2 fails)."""
    if max_N < 2:
        raise ParameterError("N must be >= 2")
    check = lambda N: transversality_check_surd(N, epsilon, e_alpha, e_beta)
    if not check(2):
        return 1
    if check(max_N):
        return max_N
    lo, hi = 2, max_N  # check(lo) true, check(hi) false
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if check(mid):
            lo = mid
        else:
            hi = mid
    return lo


def certificate_cells_every_N(pair, epsilon, n_max: int, max_N: int, n_min: int = 1):
    """Oracle of the certificate search's cells: per n, the order-2n line
    is built once and theorem_check runs at every N from the Dirichlet
    floor N0 (the least N >= 2 with 2 eps N > 1) to the transversality
    ceiling, or at N0 alone when the ceiling is below it.  The sweep stops
    at the first verified cell."""
    epsilon = Fraction(epsilon)
    N0 = max(2, math.floor(1 / (2 * epsilon)) + 1)
    cells = []
    for n in range(n_min, n_max + 1):
        line = pair.line(n)
        ceiling = transversality_ceiling(epsilon, line.e_alpha, line.e_beta, max_N)
        for N in range(N0, max(ceiling, N0) + 1):
            cells.append(theorem_check(pair, epsilon, n, N))
            if cells[-1].verified:
                return tuple(cells)
    return tuple(cells)


class CsvTable(NamedTuple):
    header: list[str]
    rows: list[dict[str, str]]  # keyed by the header
    metadata: dict[str, str]  # the trailing "# key = value" block, in order


def read_csv(path) -> CsvTable:
    """A CSV written by ``csvio.write_csv``: its rows and its metadata
    block, split where the first "#" line starts; every line after it
    must be a "# key = value" line.  The file is read as written, without
    newline translation, so a quoted cell keeps a carriage return."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines(keepends=True)
    split = next((i for i, ln in enumerate(lines) if ln.startswith("#")), len(lines))
    header, *rows = csv.reader(lines[:split])
    metadata = {}
    for ln in lines[split:]:
        key, sep, value = ln.rstrip("\n").removeprefix("# ").partition(" = ")
        assert ln.startswith("# ") and sep, f"not a metadata line: {ln!r}"
        metadata[key] = value
    return CsvTable(header, [dict(zip(header, row, strict=True)) for row in rows], metadata)


CONE_HEADER = ["x", "y", "z", "margin_lo", "margin_hi", "f_lo", "f_hi", "verdict"]


def cone_rows_fraction(alpha, beta, params, sample_count: int, seed: int) -> list[list[str]]:
    """The cone-check rows as rendered before the integer cells: every cell
    a normalised Fraction (the InclusionSample properties and the
    DyadicInterval midpoints) through format_decimal, one call per cell."""
    rows = []
    run = InclusionRun(alpha, beta, params, sample_count, seed)
    for smp in run:
        y_iv, z_iv = sample_point_coordinates(run, smp)
        f, margin = smp.f, smp.margin
        rows.append([
            format_decimal(smp.x),
            format_decimal(y_iv.midpoint()),
            format_decimal(z_iv.midpoint()),
            format_decimal(margin, direction=-1),
            format_decimal(margin, direction=1),
            format_decimal(f, direction=-1),
            format_decimal(f, direction=1),
            "violation" if smp.violation else "ok",
        ])
    return rows


def infeasibility_grid_loop(X, x0, points: int, bits: int = 160):
    """The u-grid refutation evaluated at every grid member: the oracle of
    certificate.infeasibility_grid_check, which evaluates only the members
    that can hold the least margin.  Same grid, same fields."""
    X = Fraction(X)
    a = SurdSum.sqrt(2, coeff=(1 << 17) * (X**4 / 4 + 2))
    b = SurdSum.sqrt(2 * X, coeff=(1 << 17) * X**2)
    c = SurdSum.sqrt(2, coeff=4 * X)
    rhs = (
        frac_pow_interval(2, 7, 4, bits) * frac_pow_interval(X, 1, 8, bits)
        + frac_pow_interval(2, 57, 8, bits) * frac_pow_interval(X, 39, 16, bits)
        + frac_pow_interval(2, 27, 4, bits) * frac_pow_interval(X, 9, 8, bits)
    )
    u_lo = frac_pow_interval(2, -5, 8, bits) * frac_pow_interval(X, -3, 16, bits)
    u_hi = None
    if x0 is not None:
        if x0 < 2:
            return GridCheckResult(True, 0, True, math.inf, u_lo, None)
        u_hi = frac_pow_interval(x0 - 1, 1, 4, bits)
        if u_hi.hi < u_lo.lo:
            return GridCheckResult(True, 0, True, math.inf, u_lo, u_hi)
    a_iv, b_iv, c_iv = a.interval(bits), b.interval(bits), c.interval(bits)

    grid = [u_lo]
    if u_hi is not None and points > 1:
        lo_r, hi_r = u_lo.hi, u_hi.lo
        if hi_r > lo_r:
            step = (hi_r - lo_r) / (points - 1)
            grid.extend(DyadicInterval.point(lo_r + j * step, bits) for j in range(points))
        grid.append(u_hi)
    ok = True
    min_margin = math.inf
    for u_iv in grid:
        u2 = u_iv * u_iv
        u4 = u2 * u2
        margin = (a_iv * u4 + b_iv * u2 + c_iv - rhs).lo
        min_margin = min(min_margin, float(margin))
        if margin <= 0:
            ok = False
    return GridCheckResult(ok, len(grid), False, min_margin, u_lo, u_hi)
