"""Exact number foundation: sums of square roots and dyadic interval
arithmetic with certified sign determination.

Two layers:

* ``SurdSum`` -- a finite rational combination  q0 + q1*sqrt(d1) + ... of
  square roots of distinct squarefree integers, held as integer numerators
  over one common denominator in a canonical form (positive denominator, no
  zero numerator, no common factor), so its arithmetic is integer
  arithmetic plus one gcd.  Sums, differences and products stay in this
  class, and its sign is exactly decidable, so it is the one arithmetic
  type: every exact number of the package (alpha and beta included), every
  field operation, interval enclosure, floor and certified comparison goes
  through it.
* ``DyadicInterval`` -- the one interval representation: integer
  mantissas ``lo_m, hi_m`` over a scale ``2**-exp``, on which every
  irrational sign is decided.  Sums and products are exact integer
  operations; leaves, division and square roots round outward through one
  helper.  A SurdSum keeps its enclosure at SIGN_BITS_START, the one every
  certified sign, floor and polynomial probe tries first.

``certified_sign`` ties the layers together: interval evaluation with a
doubling precision schedule from 64 bits, which stops at the precision
proven to separate the sum from zero (a root-separation bound; see
``SurdSum._sign_exact``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "ParameterError",
    "SIGN_BITS_START",
    "squarefree_decompose",
    "iroot",
    "root_interval",
    "frac_pow_interval",
    "DyadicInterval",
    "SurdSum",
    "as_surdsum",
    "certified_sign",
]

SIGN_BITS_START = 64

# Sound factorisation limit for squarefree_decompose: after trial division
# by everything <= _TRIAL_LIMIT, a cofactor <= _TRIAL_LIMIT**3 is 1, prime,
# a prime square, or a product of two distinct primes.
_TRIAL_LIMIT = 100_000


class ParameterError(ValueError):
    """Caller-supplied parameter outside the documented domain."""


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s*r`` with ``r`` squarefree; return ``(s, r)``.

    Trial division runs to ``_TRIAL_LIMIT`` and, for a non-square cofactor
    above ``_TRIAL_LIMIT**3`` (1e15), on to its cube root.  A cofactor
    whose cube root exceeds ``10 * _TRIAL_LIMIT`` raises ParameterError
    rather than risk an uncertified decomposition.
    """
    if n < 0:
        raise ValueError("radicand must be nonnegative")
    if n <= 1:
        return 1, n
    square, free, rest = 1, 1, n
    p, limit = 2, _TRIAL_LIMIT
    while p * p <= rest:
        if p > limit:
            # no prime <= limit is left, so a cofactor <= limit**3 is 1, a
            # prime, a prime square or a product of two primes; a larger
            # non-square extends the limit once, to its cube root
            if limit > _TRIAL_LIMIT or rest <= limit**3 or math.isqrt(rest) ** 2 == rest:
                break
            limit = iroot(rest, 3) + 1
            if limit > 10 * _TRIAL_LIMIT:
                raise ParameterError(f"cannot certify squarefree part of {n}")
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            square *= p ** (e // 2)
            if e % 2:
                free *= p
        p += 1 if p == 2 else 2
    if rest > 1:
        s = math.isqrt(rest)
        if s * s == rest:
            square *= s
        else:
            free *= rest
    return square, free


def iroot(n: int, k: int) -> int:
    """Exact floor of the k-th root of a nonnegative integer."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n == 0 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (-(-n.bit_length() // k))  # upper seed: 2^ceil(bits/k) >= n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def _outward(lo_num: int, hi_num: int, den: int, bits: int) -> tuple[int, int]:
    """Mantissas over 2**-bits of the rational interval [lo_num/den,
    hi_num/den] (den > 0), rounded outward: the floor of the lower end and
    the ceiling of the upper end.  All outward rounding goes through here."""
    return (lo_num << bits) // den, -((-hi_num << bits) // den)


class DyadicInterval:
    """Closed interval [lo_m * 2**-exp, hi_m * 2**-exp] on integer
    mantissas, guaranteed to contain the exact value it was computed from.

    Sums, differences and products are exact (a sum aligns the scales by
    shifting, a product multiplies the mantissas and adds the scales), so
    only leaves (:meth:`point`, :meth:`of_surd_terms`, square roots),
    :meth:`divide` and :meth:`sqrt` round, always outward.  ``lo``, ``hi``,
    ``width`` and ``midpoint()`` read as exact Fractions, and equality is by
    value.  Instances are not changed after construction.
    """

    __slots__ = ("lo_m", "hi_m", "exp")

    def __init__(self, lo_m: int, hi_m: int, exp: int) -> None:
        if lo_m > hi_m:
            raise ValueError(f"inverted interval [{lo_m}, {hi_m}] * 2**-{exp}")
        self.lo_m = lo_m
        self.hi_m = hi_m
        self.exp = exp

    @classmethod
    def point(cls, x: int | Fraction, bits: int = 64) -> "DyadicInterval":
        """Enclosure of a rational, exact if x is a multiple of 2**-bits."""
        x = Fraction(x)
        return cls(*_outward(x.numerator, x.numerator, x.denominator, bits), bits)

    @classmethod
    def of_surd_terms(cls, terms: Sequence[tuple[int, int, int]], bits: int) -> "DyadicInterval":
        """Enclosure of the sum of p/q * sqrt(rad) over the (rad, p, q) in
        ``terms``, with rad = 1 or squarefree, q > 0 and p != 0; p/q need not
        be reduced, since every bound is a floor or a ceiling of an exact
        term.  Each term is rounded outward at a few guard bits above
        ``bits`` (more terms, more guard bits) and the sum is exact."""
        work = bits + max(1, len(terms)).bit_length() + 4
        lo = hi = 0
        for rad, p, q in terms:
            if rad == 1:
                t_lo, t_hi = _outward(p, p, q, work)
            else:
                # sqrt(rad) lies in (m, m + 1) * 2**-work: rad > 1 is squarefree
                m = _sqrt_floor(rad, work)
                if p > 0:
                    t_lo, t_hi = _outward(m * p, (m + 1) * p, q, 0)
                else:
                    t_lo, t_hi = _outward((m + 1) * p, m * p, q, 0)
            lo += t_lo
            hi += t_hi
        return cls(lo, hi, work)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_m, 1 << self.exp)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_m, 1 << self.exp)

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi_m - self.lo_m, 1 << self.exp)

    def midpoint_ratio(self) -> tuple[int, int]:
        """The midpoint as an unreduced (numerator, denominator) pair."""
        return self.lo_m + self.hi_m, 1 << (self.exp + 1)

    def midpoint(self) -> Fraction:
        return Fraction(*self.midpoint_ratio())

    def __float__(self) -> float:
        return (self.lo_m + self.hi_m) / (1 << (self.exp + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicInterval):
            return NotImplemented
        shift = self.exp - other.exp
        if shift < 0:
            return other == self
        return (self.lo_m, self.hi_m) == (other.lo_m << shift, other.hi_m << shift)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def contains_zero(self) -> bool:
        return self.lo_m <= 0 <= self.hi_m

    def sign_or_none(self) -> int | None:
        """Certified sign if the interval excludes 0 (or is exactly 0)."""
        if self.lo_m > 0:
            return 1
        if self.hi_m < 0:
            return -1
        if self.lo_m == 0 == self.hi_m:
            return 0
        return None

    def __neg__(self) -> "DyadicInterval":
        return DyadicInterval(-self.hi_m, -self.lo_m, self.exp)

    def __add__(self, other: "DyadicInterval") -> "DyadicInterval":
        shift = self.exp - other.exp
        if shift < 0:
            return other + self
        return DyadicInterval(
            self.lo_m + (other.lo_m << shift), self.hi_m + (other.hi_m << shift), self.exp
        )

    def __sub__(self, other: "DyadicInterval") -> "DyadicInterval":
        return self + (-other)

    def __mul__(self, other: "DyadicInterval") -> "DyadicInterval":
        p1, p2 = self.lo_m * other.lo_m, self.lo_m * other.hi_m
        p3, p4 = self.hi_m * other.lo_m, self.hi_m * other.hi_m
        return DyadicInterval(min(p1, p2, p3, p4), max(p1, p2, p3, p4), self.exp + other.exp)

    def abs(self) -> "DyadicInterval":
        if self.lo_m >= 0:
            return self
        if self.hi_m <= 0:
            return -self
        return DyadicInterval(0, max(-self.lo_m, self.hi_m), self.exp)

    def divide(self, other: "DyadicInterval", bits: int) -> "DyadicInterval":
        """Quotient rounded outward to 2**-bits; the divisor must be
        sign-definite."""
        if other.contains_zero():
            raise ZeroDivisionError("division by an interval containing zero")
        if other.hi_m < 0:
            self, other = -self, -other
        # other > 0, so n / d falls with d for n >= 0 and rises for n < 0
        d_lo = other.hi_m if self.lo_m >= 0 else other.lo_m
        d_hi = other.lo_m if self.hi_m >= 0 else other.hi_m
        lo, hi = _outward(
            (self.lo_m * d_hi) << other.exp,
            (self.hi_m * d_lo) << other.exp,
            (d_lo * d_hi) << self.exp,
            bits,
        )
        return DyadicInterval(lo, hi, bits)

    def sqrt(self, bits: int) -> "DyadicInterval":
        """Square root rounded outward to 2**-bits."""
        if self.lo_m < 0:
            raise ValueError("sqrt of an interval with negative lower bound")
        return DyadicInterval(
            root_interval(self.lo, 2, bits).lo_m, root_interval(self.hi, 2, bits).hi_m, bits
        )

    def __repr__(self) -> str:
        scale = 1 << self.exp
        return f"[{self.lo_m / scale:.17g}, {self.hi_m / scale:.17g}]"


def root_interval(x: int | Fraction, k: int, bits: int) -> DyadicInterval:
    """Enclosure of x**(1/k) (x >= 0, k >= 1) with width <= 2**-bits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("even roots of negative rationals are not real")
    scaled = (x.numerator << (k * bits)) // x.denominator
    m = iroot(scaled, k)
    exact = m**k * x.denominator == x.numerator << (k * bits)
    return DyadicInterval(m, m if exact else m + 1, bits)


def frac_pow_interval(base: int | Fraction, num: int, den: int, bits: int) -> DyadicInterval:
    """Enclosure of base**(num/den) for a positive rational base."""
    base = Fraction(base)
    if base <= 0:
        raise ValueError("fractional powers need a positive base")
    if den < 1:
        raise ValueError("denominator of the exponent must be positive")
    return root_interval(base**num, den, bits)


# Measured working set: at most 13 (d, bits) keys in one README command and
# 12 in one benchmark pass.  Fresh numbers bring fresh radicands, so a
# larger cache would mostly hold the keys of earlier calls.
@lru_cache(maxsize=64)
def _sqrt_floor(d: int, bits: int) -> int:
    """floor(sqrt(d) * 2**bits)."""
    return math.isqrt(d << (2 * bits))


class SurdSum:
    """Exact finite sum  (n0 + n1*sqrt(d1) + n2*sqrt(d2) + ...) / den  with
    integer numerators over one common denominator and distinct squarefree
    radicands (radicand 1 holds the rational part).

    The form is canonical: den > 0, no numerator is 0, and den and the
    numerators have no common factor, so equal values have equal integers
    and equality and hashing read them.  Closed under +, -, * and integer
    powers, each integer arithmetic plus one gcd.  A sum with a term is
    nonzero (square roots of distinct squarefree integers are linearly
    independent over Q), and a root-separation bound says how far from
    zero it is, so its sign is decided by one interval evaluation at a
    precision computed from the terms.  It has no order operators: compare
    u and v through ``certified_sign(u - v)``.
    """

    # _num maps each radicand to its nonzero integer numerator, _den is the
    # common denominator, both in the canonical form above and never
    # changed after construction, so the memos _iv (interval(SIGN_BITS_START))
    # and _hash, set on first use only, stay valid.  alpha and beta key the
    # lru cache of the Dirichlet records.
    __slots__ = ("_num", "_den", "_iv", "_hash")

    def __init__(self, terms: Mapping[int, int | Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for rad, coef in terms.items():
                coef = Fraction(coef)
                if coef == 0 or rad == 0:
                    continue
                if rad < 0:
                    raise ValueError("radicands must be nonnegative")
                square, free = squarefree_decompose(rad)
                if square != 1:
                    coef *= square
                clean[free] = clean.get(free, 0) + coef
        # over the lcm of the reduced denominators no prime divides every
        # numerator, so the form is canonical without a gcd
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._num = {rad: c.numerator * (den // c.denominator) for rad, c in clean.items() if c}
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, x: int | Fraction) -> "SurdSum":
        return _adopt({1: x.numerator} if x else {}, x.denominator)

    @classmethod
    def _reduce(cls, num: dict[int, int], den: int) -> "SurdSum":
        """The canonical form of (sum of num[rad]*sqrt(rad)) / den for
        squarefree radicands, nonzero numerators and den != 0: divides out
        the common factor and makes den positive, factoring nothing."""
        g = math.gcd(den, *num.values())
        if den < 0:
            g = -g
        if g != 1:
            num = {rad: n // g for rad, n in num.items()}
            den //= g
        return _adopt(num, den)

    @classmethod
    def sqrt(cls, x: int | Fraction, coeff: int | Fraction = 1) -> "SurdSum":
        """coeff * sqrt(x) for a nonnegative rational x:
        sqrt(p/q) = sqrt(p*q)/q keeps the radicand integral."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("sqrt of a negative rational")
        if x == 0:
            return cls()
        rad = x.numerator * x.denominator
        return cls({rad: Fraction(coeff) / x.denominator})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and 1 in num)

    def rational_part(self) -> Fraction:
        return Fraction(self._num.get(1, 0), self._den)

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """The (radicand, nonzero coefficient) pairs; radicand 1 holds the
        rational part."""
        den = self._den
        return tuple((rad, Fraction(n, den)) for rad, n in self._num.items())

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is irrational")
        return self.rational_part()

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SurdSum, int, Fraction)):
            return NotImplemented
        other = as_surdsum(other)
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:  # a rational sum hashes as the Fraction (or int) it equals
            h = self._hash = hash(self.rational_part() if self.is_rational()
                                  else (self._den, frozenset(self._num.items())))
        return h

    # -- ring operations ---------------------------------------------------

    def _plus(self, other: "SurdSum", sign: int) -> "SurdSum":
        """self + sign*other over the lcm of the two denominators."""
        da, db = self._den, other._den
        if da == db:
            num = dict(self._num)
            mb = sign
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, sign * (da // g)
            num = {rad: n * ma for rad, n in self._num.items()}
            da *= ma
        for rad, n in other._num.items():
            num[rad] = num.get(rad, 0) + n * mb
        return SurdSum._reduce({rad: n for rad, n in num.items() if n}, da)

    def _plus_int(self, k: int) -> "SurdSum":
        """self + k for an integer k."""
        num = dict(self._num)
        n = num.pop(1, 0) + k * self._den
        if n:
            num[1] = n
        # the rational numerator moved by a multiple of den, so den still
        # shares no prime with every numerator
        return _adopt(num, self._den if num else 1)

    def __add__(self, other) -> "SurdSum":
        if isinstance(other, int):
            return self._plus_int(other)
        return self._plus(as_surdsum(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "SurdSum":
        return _adopt({rad: -n for rad, n in self._num.items()}, self._den)

    def __sub__(self, other) -> "SurdSum":
        if isinstance(other, int):
            return self._plus_int(-other)
        return self._plus(as_surdsum(other), -1)

    def __rsub__(self, other) -> "SurdSum":
        return as_surdsum(other)._plus(self, -1)

    def __mul__(self, other) -> "SurdSum":
        if isinstance(other, int):
            # den // g shares no prime with k // g nor with the numerators
            g = math.gcd(other, self._den)
            k = other // g
            return _adopt({rad: n * k for rad, n in self._num.items()} if k else {}, self._den // g)
        if isinstance(other, Fraction):
            p = other.numerator
            return SurdSum._reduce(
                {rad: n * p for rad, n in self._num.items()} if p else {},
                self._den * other.denominator,
            )
        other = as_surdsum(other)
        num: dict[int, int] = {}
        for d1, n1 in self._num.items():
            for d2, n2 in other._num.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt(d1' * d2') with g = gcd, both
                # squarefree and coprime, so the product radicand is squarefree.
                g = math.gcd(d1, d2)
                rad = (d1 // g) * (d2 // g)
                num[rad] = num.get(rad, 0) + n1 * n2 * g
        return SurdSum._reduce({rad: n for rad, n in num.items() if n}, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SurdSum":
        """Division by a nonzero exact rational (the only closed case)."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    def __pow__(self, k: int) -> "SurdSum":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are exact")
        result = SurdSum.from_rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- certified evaluation ----------------------------------------------

    def interval(self, bits: int) -> DyadicInterval:
        """Enclosure of the exact value (see DyadicInterval.of_surd_terms);
        the one at SIGN_BITS_START is computed once and kept."""
        if bits == SIGN_BITS_START:
            iv = getattr(self, "_iv", None)
            if iv is None:
                iv = self._iv = self._enclose(bits)
            return iv
        return self._enclose(bits)

    def _enclose(self, bits: int) -> DyadicInterval:
        den = self._den
        return DyadicInterval.of_surd_terms([(rad, n, den) for rad, n in self._num.items()], bits)

    def _sign_exact(self, bits: int) -> int:
        """Sign from one evaluation at ``bits = _separation_bits(self)``,
        at which the enclosure excludes 0 by proof; ``certified_sign``
        calls it once its doubling schedule would reach that precision."""
        sg = self.interval(bits).sign_or_none()
        if sg is None:
            raise AssertionError(f"separation bound broken: interval({bits}) contains 0")
        return sg

    def abs(self) -> "SurdSum":
        return -self if certified_sign(self) < 0 else self

    # -- floor and nearest integer (exact) --------------------------------

    def floor(self) -> int:
        """Exact floor."""
        return self._floor_plus_half(0)

    def nearest(self) -> tuple[int, "SurdSum"]:
        """The nearest integer m (rational ties round up) and the signed
        residual self - m, exactly."""
        m = self._floor_plus_half(1)
        return m, self._plus_int(-m)

    def _floor_plus_half(self, half: int) -> int:
        """floor(self + half/2) for half 0 or 1, read from the memoised
        interval(SIGN_BITS_START).  A certified sign is needed only when the
        enclosure straddles an integer; a wider one (coefficients near
        2**64) is first narrowed at doubling precision."""
        bits = SIGN_BITS_START
        iv = self.interval(bits)
        while True:
            exp = iv.exp
            shift = half << (exp - 1)
            k, k_hi = (iv.lo_m + shift) >> exp, (iv.hi_m + shift) >> exp
            if k_hi - k <= 1:
                break
            bits *= 2
            iv = self.interval(bits)
        if k == k_hi:
            return k
        # self + half/2 lies in [k, k + 2) and reaches k + 1 iff self does
        # reach k + 1 - half/2
        return k_hi if certified_sign(self - Fraction(2 * k_hi - half, 2)) >= 0 else k

    def __float__(self) -> float:
        return float(self.interval(64))

    def __repr__(self) -> str:
        if not self._num:
            return "SurdSum(0)"
        parts = []
        for rad, coef in sorted(self.terms()):
            parts.append(str(coef) if rad == 1 else f"{coef}*sqrt({rad})")
        return f"SurdSum({' + '.join(parts)})"


def _adopt(num: dict[int, int], den: int) -> SurdSum:
    """A SurdSum holding a (num, den) pair that is already canonical."""
    s = object.__new__(SurdSum)
    s._num = num
    s._den = den
    return s


def as_surdsum(x) -> SurdSum:
    """Coerce ints and Fractions into SurdSum."""
    if isinstance(x, SurdSum):
        return x
    if isinstance(x, (int, Fraction)):
        return SurdSum.from_rational(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact number")


def _inverse_square_floor(m: SurdSum, c: int | Fraction, cap: int | float) -> int | float:
    """min(floor(c / m**2), cap) for m >= 0 and a rational c > 0, exactly
    (m = 0 gives the cap, which may be math.inf)."""
    if m.is_zero():
        return cap
    c = Fraction(c)
    bits = SIGN_BITS_START
    iv = m.interval(bits)  # memoised on m
    while True:
        # m lies in [lo, hi] * 2**-exp, so floor(c/m**2) lies in [k, k_hi]
        lo, hi, exp = iv.lo_m, iv.hi_m, iv.exp
        num = c.numerator << (2 * exp)
        k = num // (c.denominator * hi * hi)
        if k >= cap:
            return cap
        k_hi = num // (c.denominator * lo * lo) if lo > 0 else None
        if k_hi == k:
            return k
        if k_hi == k + 1:
            return k_hi if certified_sign(m * m * k_hi - c) <= 0 else k
        bits *= 2
        iv = m.interval(bits)


# The separation bound.  Let s = (sum a_i*sqrt(d_i)) / D be a canonical
# SurdSum with n terms: integer numerators a_i over D = den, which is the
# lcm of the reduced denominators of the coefficients a_i/D.
#  * s != 0 if n > 0: square roots of distinct squarefree integers are
#    linearly independent over Q (Besicovitch 1940).
#  * D*s is an algebraic integer of K = Q(sqrt(d_1), ..., sqrt(d_n)), a
#    field of degree m = 2**r with r the F2-rank of the radicands: modulo
#    squares they generate a group of 2**r squarefree integers, and K is
#    generated by the square roots of any r of them that span it.  Its
#    conjugates are the sums of the +-a_i*sqrt(d_i), each at most
#    H = sum |a_i|*ceil(sqrt(d_i)) >= 1 in absolute value.
#  * Its norm, the product of its m conjugates, is a nonzero integer, so
#    |D*s| * H**(m - 1) >= 1 and |s| >= 1 / (D * H**(2**r - 1)) (the
#    root-separation argument of Burnikel, Fleischer, Mehlhorn and Schirra
#    2000).
#  * interval(b) encloses each term at work >= b bits to within |a_i/D| + 2
#    units of 2**-work (sqrt(d_i) is known to one unit, scaled by |a_i/D|,
#    and each end rounds outward by less than one unit), so its width is
#    below (sum |a_i/D| + 2n) * 2**-b <= (H + 2n) * 2**-b.
#  * An enclosure of s narrower than |s| excludes 0.  The b below has
#    2**b > D * H**(2**r - 1) * (H + 2n), since x < 2**bitlen(x), so the
#    width of interval(b) is below 1 / (D * H**(2**r - 1)) <= |s|.
def _separation_bits(s: SurdSum) -> int:
    """Precision b at which ``s.interval(b)`` provably excludes 0 (s != 0)."""
    num, D = s._num, s._den
    H = sum(abs(n) * (math.isqrt(rad - 1) + 1) for rad, n in num.items())
    r = _radicand_rank(num)
    return D.bit_length() + ((1 << r) - 1) * H.bit_length() + (H + 2 * len(num)).bit_length()


def _radicand_rank(radicands) -> int:
    """The F2-rank r of squarefree radicands.  Their products modulo squares,
    d*e // gcd(d, e)**2, form a group of 2**r squarefree integers with 1 in
    it, and each radicand outside the group built so far doubles it."""
    group = {1}
    for d in radicands:
        if d not in group:
            group |= {e * d // math.gcd(e, d) ** 2 for e in group}
    return len(group).bit_length() - 1


def certified_sign(x) -> int:
    """Exact sign (-1, 0, +1) of an exact expression.

    Interval evaluation at doubling precision from SIGN_BITS_START decides
    every sign in practice.  The separation precision of the bound above is
    computed at the first undecided evaluation, and once the next doubling
    would reach it, ``SurdSum._sign_exact`` decides the sign there instead.
    """
    s = as_surdsum(x)
    if s.is_rational():
        n = s._num.get(1, 0)  # over a positive denominator
        return (n > 0) - (n < 0)
    bits, separation = SIGN_BITS_START, 0
    while (sg := s.interval(bits).sign_or_none()) is None:
        separation = separation or _separation_bits(s)
        bits *= 2
        if bits >= separation:
            return s._sign_exact(separation)
    return sg
