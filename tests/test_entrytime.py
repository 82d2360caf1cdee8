"""Entry times: the membership quadratic, its discriminant, the certified
root against a bisection oracle, and the exact comparator tau_vs against
the squaring oracle."""

import math
import random
from fractions import Fraction

import pytest

from littlewood.cfrac import ErrorTerm
from littlewood.cone import ConeParams, cone_contains
from littlewood.entrytime import (
    NonpositiveDenominatorError,
    _entry_root,
    _membership_coeffs,
    entry_time,
    line_gamma,
    transversality_check,
)
from littlewood.exactnum import ParameterError, SurdSum, as_surdsum, certified_sign
from littlewood.lattice import ApproxLine, DirichletPoint, LatticePoint, Pair, dirichlet_search

from nums import (
    SPEC_SQRT2M1,
    SPEC_SQRT3M1,
    SQRT2M1,
    SQRT3M1,
    TEST_PAIRS,
    TRANSVERSALITY_EPSILONS,
    TRANSVERSALITY_PAIRS,
    entry_time_bisected,
    tau_vs_squared,
    transversal_config,
    transversality_ceiling_bisected,
    transversality_check_surd,
)


def _line(n=2, N=10):
    p0 = dirichlet_search(SQRT2M1, SQRT3M1, N)
    return Pair(SPEC_SQRT2M1, SPEC_SQRT3M1).line(n)._replace(P0=p0)


# -- the line ----------------------------------------------------------------


def test_gamma_endpoints():
    line = _line()
    assert line_gamma(line, Fraction(0)) == (3, 1, 2)
    x, y, z = line_gamma(line, Fraction(line.x0 - 1))
    assert x == 1


def test_gamma_at_lcm_time_is_integral():
    for a_spec, b_spec in TEST_PAIRS:
        p0 = dirichlet_search(a_spec.value(), b_spec.value(), 50)
        pair = Pair(a_spec, b_spec)
        for n in range(1, 9):
            line = pair.line(n)._replace(P0=p0)
            t_n = pair.t_n(n)
            x, y, z = line_gamma(line, Fraction(t_n))
            assert x.denominator == y.denominator == z.denominator == 1


# -- transversality ----------------------------------------------------------


def test_transversality_numeric_example():
    # N = 2, eps = 1/2, max e = 1/8: sqrt(2) <= 4
    assert transversality_check(2, Fraction(1, 2), Fraction(1, 8), Fraction(1, 8))


def test_transversality_degenerate_rational():
    assert transversality_check(7, Fraction(1, 100), Fraction(0), Fraction(0))


@pytest.mark.parametrize("pair", TRANSVERSALITY_PAIRS, ids=["sqrt2-sqrt3", "golden", "cf-b3"])
def test_transversality_matches_surd_oracle_for_every_N(pair):
    # the oracle squares both sides into one SurdSum sign, which is monotone
    # in N; so it passes exactly on [2, c] for its bisected ceiling c, and
    # the integer check must agree with that at every N in [2, 3000]
    a_spec, b_spec = pair
    for n in range(1, 9):
        line = Pair(a_spec, b_spec).line(n)
        ea, eb = line.e_alpha, line.e_beta
        for eps in TRANSVERSALITY_EPSILONS:
            c = transversality_ceiling_bisected(eps, ea, eb, 3000)
            verdicts = [transversality_check(N, eps, ea, eb) for N in range(2, 3001)]
            assert verdicts == [N <= c for N in range(2, 3001)], (n, eps, c)
            for N in {2, c, c + 1, 3000} - {1, 3001}:
                assert transversality_check_surd(N, eps, ea, eb) == (N <= c)


def test_transversality_exact_tie_with_rational_error_terms():
    # 4 e^2 N (N-1)^2 = 4/64 * 2 = 1/8 = 2 eps: a tie, which is transversal
    e = Fraction(1, 8)
    assert transversality_check(2, Fraction(1, 16), e, e)
    assert transversality_check_surd(2, Fraction(1, 16), e, e)
    below = Fraction(1, 16) - Fraction(1, 10**30)
    assert not transversality_check(2, below, e, e)
    assert not transversality_check_surd(2, below, e, e)
    # N(N-1)^2 = 2 <= floor((eps/2) / e^2) = 2 holds with e_a, e_b swapped
    assert transversality_check(2, Fraction(1, 16), Fraction(1, 9), e)
    assert not transversality_check(3, Fraction(1, 16), e, Fraction(1, 9))


def test_transversality_zero_error_terms_pass_every_N():
    for N in (2, 3, 1000, 10**12):
        assert transversality_check(N, Fraction(1, 10**6), Fraction(0), Fraction(0))
        assert transversality_check_surd(N, Fraction(1, 10**6), Fraction(0), Fraction(0))


def test_transversality_eventually_passes_in_n():
    # e_2n -> 0, so for fixed N, eps the condition holds from some n on
    N, eps = 51, Fraction(1, 100)
    p0 = dirichlet_search(SQRT2M1, SQRT3M1, N)
    results = []
    for n in range(1, 7):
        line = Pair(SPEC_SQRT2M1, SPEC_SQRT3M1).line(n)._replace(P0=p0)
        results.append(transversality_check(N, eps, line.e_alpha, line.e_beta))
    assert results == sorted(results)  # False ... False True ... True
    assert results[-1] is True
    assert results[2] is False  # n = 3 still fails at N = 51 for this pair


# -- discriminant ------------------------------------------------------------


def discriminant(line: ApproxLine, params: ConeParams) -> SurdSum:
    """D_n = 4 (B^2 - A C), exactly, from the coefficients entry_time uses."""
    A, B, C = _membership_coeffs(line, params)
    return 4 * (B * B - A * C)


def test_discriminant_axis_degenerate_is_zero():
    zero = SurdSum()
    p0 = DirichletPoint(LatticePoint(3, 1, 2), 10, zero, zero)
    e0 = ErrorTerm(4, zero, 0, 0, 1, 1)
    line = ApproxLine(2, p0, e0, e0)
    params = ConeParams.make(10, Fraction(1, 10))
    assert certified_sign(discriminant(line, params)) == 0
    rep = entry_time(line, params)
    assert rep.already_inside and rep.tau.lo == 0 == rep.tau.hi


def discriminant_rearranged(line: ApproxLine, params: ConeParams) -> SurdSum:
    """The same discriminant with the square expanded and regrouped; equal
    to :func:`discriminant` as an algebraic identity, so it cross-checks
    the exact arithmetic."""
    ea = line.e_alpha.value
    eb = line.e_beta.value
    U0, V0 = line.P0.U0, line.P0.V0
    phi_s = as_surdsum(params.phi)
    slack = params.N - line.x0
    quarter = (
        2 * params.phi * slack * (ea * U0 + eb * V0)
        + 2 * (ea * eb) * (U0 * V0)
        + (ea * ea) * params.phi * slack * slack
        + (eb * eb) * params.phi * slack * slack
        + (phi_s - ea * ea) * (V0 * V0)
        + (phi_s - eb * eb) * (U0 * U0)
    )
    return 4 * quarter


def test_discriminant_rearrangement_identity():
    rng = random.Random(12)
    for _ in range(10):
        _, _, line, params, _ = transversal_config(rng, require_segment=False)
        d1 = discriminant(line, params)
        d2 = discriminant_rearranged(line, params)
        assert (d1 - d2).is_zero()  # exact algebraic identity


def test_discriminant_positive_under_transversality():
    rng = random.Random(13)
    for _ in range(15):
        _, _, line, params, rep = transversal_config(rng, require_segment=False)
        assert rep.d_n_sign == 1
        assert certified_sign(rep.denominator) == 1


# -- entry time --------------------------------------------------------------


def test_nontransversal_line_with_nonpositive_denominator_raises():
    line = _line(n=1, N=51)
    params = ConeParams.make(51, Fraction(1, 100))
    assert not transversality_check(51, Fraction(1, 100), line.e_alpha, line.e_beta)
    A, _, _ = _membership_coeffs(line, params)
    assert certified_sign(A) <= 0
    with pytest.raises(NonpositiveDenominatorError):
        entry_time(line, params)


def test_nontransversal_line_with_positive_denominator_is_solved():
    # transversality fails, but A > 0 and C < 0 still force D > 0, so the
    # entering root is certified, and bisection on the membership
    # predicate finds it inside the segment [0, x0 - 1] = [0, 6]
    line = _line(n=2, N=18)
    params = ConeParams.make(18, Fraction(1, 5))
    assert not transversality_check(18, Fraction(1, 5), line.e_alpha, line.e_beta)
    A, _, C = _membership_coeffs(line, params)
    assert certified_sign(A) == 1 and certified_sign(C) == -1
    rep = entry_time(line, params)
    assert not rep.already_inside and rep.d_n_sign == 1
    lo, hi = entry_time_bisected(line, params, tol=Fraction(1, 10**11))
    assert 5 < lo and hi < 6
    assert rep.tau.lo <= hi and lo <= rep.tau.hi  # both enclose the root
    assert rep.tau.width <= Fraction(6, 10**12)


def test_entry_time_matches_bisection_oracle():
    rng = random.Random(14)
    for _ in range(20):
        _, _, line, params, rep = transversal_config(rng)
        lo, hi = entry_time_bisected(line, params, tol=Fraction(1, 10**11))
        mid = rep.tau.midpoint()
        assert lo - Fraction(1, 10**9) <= mid <= hi + Fraction(1, 10**9)
        scale = max(abs(mid), Fraction(1))
        assert (hi - lo) <= scale  # sanity on the bracket itself
        assert rep.tau.width <= Fraction(1, 10**12) * scale


def test_entry_time_roots_ordered():
    # tau is the larger root: the other is -2B/A - tau (the roots sum to
    # -2B/A), enclosed here from tau and 256-bit enclosures of A and B
    rng = random.Random(15)
    for _ in range(10):
        _, _, line, params, rep = transversal_config(rng, require_segment=False)
        assert rep.d_n_sign > 0
        bits = 256
        a_iv, b_iv = rep.denominator.interval(bits), rep.B.interval(bits)
        other = (-(b_iv + b_iv)).divide(a_iv, bits) - rep.tau
        assert other.hi < rep.tau.lo


def test_entry_root_raises_the_precision_for_a_tiny_leading_coefficient():
    # A = 1e-45 rounds to a 128-bit enclosure that holds 0, so the root of
    # A t^2 + 2 t - 1 (just below 1/2) is enclosed at 256 bits
    A, B, C = as_surdsum(Fraction(1, 10**45)), as_surdsum(1), as_surdsum(-1)
    assert A.interval(128).contains_zero()
    tau = _entry_root(A, B, 4 * (B * B - A * C))
    assert tau.exp == 256
    q = lambda t: A.as_fraction() * t * t + 2 * t - 1
    assert q(tau.lo) <= 0 <= q(tau.hi)
    assert tau.width <= Fraction(1, 10**12)


@pytest.mark.parametrize("A, B, C", [(Fraction(-1, 3), 1, -1), (1, 0, 1)])
def test_entry_root_refuses_a_quadratic_outside_its_domain(A, B, C):
    # A < 0 (or D = 4(B^2 - AC) < 0) is never enclosed as A > 0 and D >= 0,
    # so the precision stops at its cap instead of doubling on
    A, B, C = as_surdsum(A), as_surdsum(B), as_surdsum(C)
    with pytest.raises(ParameterError):
        _entry_root(A, B, 4 * (B * B - A * C))


def test_tau_zero_when_inside():
    # enlarge eps so the membership inequality already holds at t = 0
    rng = random.Random(16)
    _, _, line, params, rep = transversal_config(rng, require_segment=False)
    big = ConeParams.make(params.N, params.epsilon * 10**6)
    rep_big = entry_time(line, big)
    assert rep_big.already_inside and rep_big.tau.lo == 0


def test_tau_monotone_in_epsilon():
    rng = random.Random(17)
    for _ in range(8):
        _, _, line, params, rep = transversal_config(rng)
        bigger = ConeParams.make(params.N, params.epsilon * 3)
        rep_big = entry_time(line, bigger)
        # exact: tau(eps') <= (any rational upper bound of tau(eps))
        assert rep_big.tau_vs(rep.tau.hi)


def test_tau_vs_matches_the_squaring_oracle():
    # tau_vs decides tau <= k from the signs of A k + B and (A k + 2B) k + C;
    # the oracle squares sqrt(D) <= 2 (A k + B) as one SurdSum sign.  k runs
    # over 0, the ends and midpoint of tau, x0 and a negative value, and the
    # configurations include P0 already inside (eps scaled up 10^6 times)
    rng = random.Random(23)
    compared = 0
    for i in range(16):
        _, _, line, params, rep = transversal_config(rng, require_segment=i % 2 == 0)
        if i % 4 == 3:
            params = ConeParams.make(params.N, params.epsilon * 10**6)
            rep = entry_time(line, params)
            assert rep.already_inside
        tau = rep.tau
        for k in (0, tau.lo, tau.hi, tau.midpoint(), line.x0, -tau.hi - 1):
            assert rep.tau_vs(k) == tau_vs_squared(line, params, k), (i, k)
            compared += 1
    assert compared == 16 * 6


def test_lattice_time_verdict_matches_the_squaring_oracle():
    # one report method places t_n for the entry-time command and for
    # theorem_check's direct_ok; t runs across tau and across x0
    rng = random.Random(24)
    seen = set()
    for _ in range(6):
        _, _, line, params, rep = transversal_config(rng)
        x0 = line.x0
        for t in (0, math.floor(rep.tau.lo), math.ceil(rep.tau.hi), x0 - 1, x0, x0 + 5):
            if not tau_vs_squared(line, params, t):
                expected = "entry-after-lattice-time"
            elif t < x0:
                expected = "lattice-time-in-cone"
            else:
                expected = "lattice-time-beyond-segment"
            assert rep.lattice_time_verdict(t, x0) == expected, (t, x0)
            seen.add(expected)
    assert len(seen) == 3


def test_tau_vs_at_a_rational_entry_time():
    # zero error terms, N = 2, eps = 1/4: phi = 1/4, x0 = N and
    # U0^2 + V0^2 = 1/4, so A t^2 + 2 B t + C = (t^2 - 1) / 4 and tau = 1
    zero = SurdSum()
    p0 = DirichletPoint(
        LatticePoint(2, 1, 1), 2, as_surdsum(Fraction(3, 10)), as_surdsum(Fraction(4, 10))
    )
    e0 = ErrorTerm(4, zero, 0, 0, 1, 1)
    line = ApproxLine(2, p0, e0, e0)
    params = ConeParams.make(2, Fraction(1, 4))
    rep = entry_time(line, params)
    assert not rep.already_inside and rep.tau.lo <= 1 <= rep.tau.hi
    for k, expected in ((1, True), (Fraction(99, 100), False), (-1, False)):
        assert rep.tau_vs(k) is expected
        assert tau_vs_squared(line, params, k) is expected


def test_quadratic_formula_consistency():
    # evaluating A t^2 + 2 B t + C over the certified tau interval
    # (interval arithmetic end to end) must bracket zero
    rng = random.Random(22)
    for _ in range(8):
        _, _, line, params, rep = transversal_config(rng, require_segment=False)
        A, B, C = _membership_coeffs(line, params)
        bits = 256
        a_iv, b_iv, c_iv = A.interval(bits), B.interval(bits), C.interval(bits)
        root = rep.tau
        q_iv = a_iv * (root * root) + (b_iv + b_iv) * root + c_iv
        assert q_iv.contains_zero()


def test_substitute_back_on_boundary():
    rng = random.Random(18)
    for _ in range(6):
        a_spec, b_spec, line, params, rep = transversal_config(rng)
        point = line_gamma(line, rep.tau.midpoint())
        v = cone_contains(a_spec.value(), b_spec.value(), point, params)
        assert v.margin.contains_zero() or abs(float(v.margin.midpoint())) < 1e-10
