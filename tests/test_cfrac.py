"""Continued-fraction layer: expansions, convergents against a bottom-up
oracle, exact error terms, growth bounds, and approximation metrics."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from littlewood.cfrac import (
    CFSpec,
    InternalInconsistencyError,
    ParameterError,
    ProfileViolationError,
    ResidualScan,
    bad_constant_scan,
    bad_constant_estimate,
    cf_expand,
    convergent,
    convergents,
    error_term,
    growth_bounds_check,
    lcm_growth_profile,
    lcm_time,
    levy_quotient,
    residual_minima,
    LEVY_AE_LOG,
    _candidates,
    _cf_cycle,
    _distances,
    _observed_M,
    _thin_set,
)
from littlewood.exactnum import (
    SurdSum,
    as_surdsum,
    certified_sign,
)
from littlewood.numspec import parse_number_spec

from nums import (
    GOLDENM1,
    SPEC_GOLDENM1,
    SPEC_SQRT2M1,
    SPEC_SQRT3M1,
    SQRT2M1,
    SQRT3M1,
    SURD_POOL,
    TEST_PAIRS,
    cf_cycle_floor_invert,
    convergent_minima,
    quad,
    residual_minima_full,
)


def eval_cf(quotients) -> Fraction:
    """Oracle: bottom-up evaluation of a finite continued fraction."""
    acc = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        acc = a + 1 / acc
    return acc


# -- expansion ---------------------------------------------------------------


def test_expand_sqrt2():
    spec = CFSpec.from_surd(SurdSum.sqrt(2))
    assert cf_expand(spec, 5) == [1, 2, 2, 2, 2]


def test_expand_golden():
    spec = CFSpec.from_surd(quad(1, 1, 2, 5))
    assert cf_expand(spec, 4) == [1, 1, 1, 1]


def test_expand_rational_truncates():
    spec = CFSpec.from_surd(Fraction(7, 5))
    assert cf_expand(spec, 10) == [1, 2, 2]  # Euclidean algorithm, canonical


def test_expand_sqrt3_minus_1():
    assert cf_expand(SPEC_SQRT3M1, 7) == [0, 1, 2, 1, 2, 1, 2]


def test_periodic_roundtrip_values():
    # cf:[0;(2)] is sqrt(2) - 1; checked as exact surd equality
    assert CFSpec.from_periodic([0], [2]).value() == SQRT2M1
    assert CFSpec.from_periodic([0], [1]).value() == GOLDENM1
    assert CFSpec.from_periodic([0], [1, 2]).value() == quad(-1, 1, 1, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_periodic_value_expands_back(a0, period):
    spec = CFSpec.from_periodic([a0], period)
    want = ([a0] + period * 4)[: 4 * len(period)]
    assert cf_expand(spec, len(want)) == want


def test_periodic_spec_never_needs_its_value():
    # seeded specs given by quotients, non-minimal periods among them: the
    # expansion and the quotient bound read the quotients alone, and the
    # value, once asked for, expands back to the same quotients
    rng = random.Random(22)
    specs = [([0], [1, 1]), ([1, 4], [2, 3, 2, 3]), ([0], [5, 5, 5])]
    for _ in range(40):
        pre = [rng.randrange(0, 10)] + [rng.randrange(1, 10) for _ in range(rng.randrange(4))]
        specs.append((pre, [rng.randrange(1, 10) for _ in range(rng.randrange(1, 5))]))
    for pre, period in specs:
        spec = CFSpec.from_periodic(pre, period)
        want = pre + period * 3
        assert cf_expand(spec, len(want)) == want
        assert _observed_M(spec) == max(pre[1:] + period)
        assert "_value" not in vars(spec)
        assert cf_expand(CFSpec.from_surd(spec.value()), len(want)) == want


@pytest.mark.parametrize(
    "make",
    [
        lambda: CFSpec.from_periodic([0], []),
        lambda: CFSpec.from_periodic([], [1]),
        lambda: CFSpec.from_periodic([-1], [2]),
        lambda: CFSpec.from_periodic([0, 0], [2]),
        lambda: CFSpec.from_periodic([0], [1, 0]),
        lambda: CFSpec.from_surd(SurdSum.sqrt(2) + SurdSum.sqrt(3)),
    ],
    ids=["empty-period", "no-a0", "a0-negative", "preperiod-0", "period-0", "two-surds"],
)
def test_spec_refuses_what_it_cannot_expand(make):
    from littlewood.cfrac import CFError

    with pytest.raises(CFError):
        make()


@settings(max_examples=120, deadline=None)
@given(
    st.integers(-9, 9),
    st.integers(1, 9),
    st.integers(1, 9),
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 14, 15]),
)
def test_surd_expansion_matches_float_oracle(a, b, c, d):
    # independent oracle: floor/invert on a 50-digit float; ties cannot
    # occur for these small irrational inputs at this precision and depth
    import mpmath

    mpmath.mp.dps = 50
    spec = CFSpec.from_surd(quad(a, b, c, d))
    got = cf_expand(spec, 10)
    x = (mpmath.mpf(a) + b * mpmath.sqrt(d)) / c
    want = []
    for _ in range(10):
        fl = mpmath.floor(x)
        want.append(int(fl))
        x = 1 / (x - fl)
    assert got == want


def random_quad_specs(rng, count):
    """Seeded ``quad:a,b,c,d`` texts with b and c of either sign and
    non-square radicands below 3000."""
    out = []
    while len(out) < count:
        d = rng.randrange(2, 3000)
        if math.isqrt(d) ** 2 != d:
            b = rng.choice((-1, 1)) * rng.randrange(1, 4)
            c = rng.choice((-1, 1)) * rng.randrange(1, 8)
            out.append(f"quad:{rng.randrange(-20, 21)},{b},{c},{d}")
    return out


def test_cf_cycle_matches_the_floor_invert_oracle_on_the_test_pool():
    periodic = [spec for pair in TEST_PAIRS for spec in pair] + [
        CFSpec.from_periodic([0], [1, 3, 2]),
        CFSpec.from_periodic([0, 2], [3, 1]),
        CFSpec.from_periodic([0, 50], [1, 40]),
        CFSpec.from_periodic([3], [1, 7, 2]),
    ]
    values = SURD_POOL + [quad(10**9, 1, 7, 999983), quad(3, -2, -7, 13)]
    values += [spec.value() for spec in periodic]  # through _periodic_value
    for x in values:
        assert _cf_cycle(CFSpec.from_surd(x)) == cf_cycle_floor_invert(x), x


def test_cf_cycle_matches_the_floor_invert_oracle_on_random_quad_specs():
    rng = random.Random(16)
    texts = random_quad_specs(rng, 2400)
    assert sum(t.split(",")[1].startswith("-") for t in texts) > 1000  # b < 0
    assert sum(t.split(",")[2].startswith("-") for t in texts) > 1000  # c < 0
    for i, text in enumerate(texts):
        spec = parse_number_spec(text, frac=i % 2 == 1)
        assert _cf_cycle(spec) == cf_cycle_floor_invert(spec.value()), text


# -- convergents -------------------------------------------------------------


def test_convergents_sqrt2m1():
    got = [(c.p, c.q) for c in convergents([0, 2, 2, 2, 2])]
    # oracle: eval_cf of each truncation
    assert [eval_cf([0, 2, 2, 2, 2][: k + 1]) for k in range(5)] == [
        Fraction(p, q) for p, q in got
    ]
    assert got == [(0, 1), (1, 2), (2, 5), (5, 12), (12, 29)]


def test_convergents_fibonacci():
    got = [(c.p, c.q) for c in convergents([1, 1, 1, 1, 1])]
    assert got == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_single_quotient():
    assert [(c.p, c.q) for c in convergents([7])] == [(7, 1)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30), st.lists(st.integers(1, 30), min_size=1, max_size=40))
def test_convergents_match_oracle_and_are_reduced(a0, rest):
    quots = [a0] + rest
    convs = convergents(quots)
    for k, c in enumerate(convs):
        assert Fraction(c.p, c.q) == eval_cf(quots[: k + 1])
        assert math.gcd(c.p, c.q) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.lists(st.integers(1, 10), min_size=2, max_size=60))
def test_determinant_identity(a0, rest):
    convs = convergents([a0] + rest)
    for prev, cur in zip(convs, convs[1:]):
        n = cur.n
        assert cur.p * prev.q - prev.p * cur.q == (-1) ** (n + 1)


def test_even_odd_interleaving():
    # c_0 < c_2 < ... < alpha < ... < c_3 < c_1, by exact comparisons
    alpha = SPEC_SQRT2M1
    convs = convergents(cf_expand(alpha, 12))
    value = alpha.value()
    evens = [c for c in convs if c.n % 2 == 0]
    odds = [c for c in convs if c.n % 2 == 1]
    for a, b in zip(evens, evens[1:]):
        assert a.as_fraction() < b.as_fraction()
    for a, b in zip(odds, odds[1:]):
        assert a.as_fraction() > b.as_fraction()
    for c in evens:
        assert certified_sign(value - c.as_fraction()) == 1
    for c in odds:
        assert certified_sign(value - c.as_fraction()) == -1


def test_q_monotone_bounded_by_quotient_bound():
    convs = convergents(cf_expand(SPEC_SQRT3M1, 40))
    M = 2
    for prev, cur in zip(convs, convs[1:]):
        assert prev.q <= cur.q <= (M + 1) * prev.q


# -- error terms -------------------------------------------------------------


def test_error_term_examples():
    e0 = error_term(SPEC_SQRT2M1, 0)
    assert e0.sign == 1
    # 1/(2*1*2) <= e_0 = sqrt(2)-1 <= 1/(1*2), exactly
    assert e0.bounds_ok()
    assert certified_sign(e0.value - Fraction(1, 4)) >= 0
    assert certified_sign(e0.value - Fraction(1, 2)) <= 0

    e1 = error_term(SPEC_GOLDENM1, 1)
    assert e1.sign == -1


def test_error_sandwich_many_orders():
    for spec in (SPEC_SQRT2M1, SPEC_SQRT3M1, SPEC_GOLDENM1):
        for n in range(0, 30):
            e = error_term(spec, n)
            assert e.sign == (1 if n % 2 == 0 else -1)
            assert e.bounds_ok()


# -- growth bounds, Levy, bad constants --------------------------------------


def test_growth_bounds():
    assert growth_bounds_check(SPEC_SQRT2M1, 2, 20).ok
    rep = growth_bounds_check(SPEC_GOLDENM1, 1, 20)
    assert rep.ok and rep.lam == 4
    # q_n are Fibonacci numbers for the golden-type expansion
    convs = convergents(cf_expand(SPEC_GOLDENM1, 21))
    fib = [1, 1]
    while len(fib) < 25:
        fib.append(fib[-1] + fib[-2])
    assert [c.q for c in convs] == fib[:21]


def test_growth_profile_violation():
    with pytest.raises(ProfileViolationError):
        growth_bounds_check(SPEC_SQRT2M1, 1, 20)


def test_levy_quotients():
    # 1% here is absolute (percentage points on the log scale); the exact
    # n = 40 quotients sit 0.004-0.009 below their limits
    assert abs(levy_quotient(SPEC_GOLDENM1, 40) - math.log((1 + 5**0.5) / 2)) < 0.01
    spec = CFSpec.from_periodic([0], [2])
    assert abs(levy_quotient(spec, 40) - math.log(1 + 2**0.5)) < 0.01
    assert abs(LEVY_AE_LOG - 1.1865691104156255) < 1e-12


def test_bad_constant_scan_golden():
    best, argq = bad_constant_scan(SPEC_GOLDENM1, 100)
    # oracle: exhaustive scan; the minimum is at q = 1 with value
    # 1 - (golden - 1) = (3 - sqrt(5))/2 ~ 0.382 (the Fibonacci subsequence
    # q_n^2 |e_n| decreases toward 1/sqrt(5) ~ 0.447 but stays above it)
    assert argq == 1
    assert best == as_surdsum(Fraction(3, 2)) - SurdSum.sqrt(5, Fraction(1, 2))
    est = bad_constant_estimate(SPEC_GOLDENM1, 100)
    assert Fraction(38, 100) < est < Fraction(39, 100)


def test_bad_constant_scan_sqrt2():
    best, argq = bad_constant_scan(SPEC_SQRT2M1, 100)
    # oracle: exhaustive scan; minimum 2*||2*alpha|| = 6 - 4*sqrt(2) ~ 0.343
    assert argq == 2
    assert best == as_surdsum(6) - SurdSum.sqrt(2, 4)


def test_bad_constant_q1():
    best, argq = bad_constant_scan(SPEC_SQRT3M1, 1)
    assert argq == 1
    # ||sqrt(3) - 1|| = |sqrt(3) - 2| = 2 - sqrt(3)
    assert best == as_surdsum(2) - SurdSum.sqrt(3)


def test_bad_constant_near_tie_reaches_float_margin():
    # q = 2 beats q = 1 by about 1e-13 relative: the integer screen of
    # residual_minima must keep it, and the float screen of the oracle
    # residual_minima_full only nominates it through its outward margin
    spec = CFSpec.from_surd(Fraction(2, 5) + Fraction(1, 2**45))
    best, argq = bad_constant_scan(spec, 3)
    assert argq == 2
    assert best == Fraction(2, 5) - Fraction(1, 2**43)


def test_bad_constant_positive_lower_bound():
    for spec in (SPEC_SQRT2M1, SPEC_SQRT3M1, SPEC_GOLDENM1):
        assert bad_constant_estimate(spec, 50) > 0


def exact_bad_constant_scan(spec: CFSpec, Q: int) -> tuple[SurdSum, int]:
    """Oracle: exact min of q*||q*alpha|| and its first argmin, with one
    exact residual and one exact comparison per q and no screen."""
    value = as_surdsum(spec.value())
    best, best_q = None, 1
    for q in range(1, Q + 1):
        val = q * (value * q).nearest()[1].abs()
        if best is None or certified_sign(val - best) < 0:
            best, best_q = val, q
    return best, best_q


@pytest.mark.parametrize(
    "spec, Q",
    [
        (SPEC_SQRT2M1, 500),
        (SPEC_SQRT3M1, 500),
        (SPEC_GOLDENM1, 377),
        (CFSpec.from_periodic([0, 50], [1, 40]), 500),
        (CFSpec.from_periodic([3], [1, 7, 2]), 433),
        (CFSpec.from_surd(quad(10**9, 1, 7, 999983)), 500),
        (CFSpec.from_surd(Fraction(355, 113)), 500),  # exact zero at 113
        (CFSpec.from_surd(Fraction(-3, 7)), 5),
    ],
)
def test_bad_constant_scan_matches_exact_oracle(spec, Q):
    best, argq = bad_constant_scan(spec, Q)
    want, want_q = exact_bad_constant_scan(spec, Q)
    assert argq == want_q
    assert best == want


@pytest.mark.parametrize("text", ["sqrt:2", "sqrt:7", "quad:1,1,2,5"])
def test_one_alpha_scans_match_the_convergent_oracle_to_1e30(text):
    # far past the numpy oracles' uint64 range: every record of
    # q*||q*alpha|| is a convergent denominator (Legendre)
    spec = parse_number_spec(text, True)
    want = convergent_minima(spec, 10**30)
    assert residual_minima(ResidualScan((as_surdsum(spec.value()),)), 10**30) == want
    assert bad_constant_scan(spec, 10**30) == (want[-1][1], want[-1][0])


def test_bad_constant_scan_rejects_Q_below_one():
    with pytest.raises(ParameterError, match="Q must be >= 1"):
        bad_constant_scan(SPEC_SQRT2M1, 0)


def _rat(p, q):
    return SurdSum.from_rational(Fraction(p, q))


def residual_scan_cases():
    """(alphas, combine, stops): ResidualScans advanced to each stop in
    turn.  Fixed cases first: alpha = 1/2 (P = 2**63 at every odd x),
    exact zeros (a rational alone, 1/3 with 2/3), alpha = beta, dyadic
    block edges, resumes out of order.  Then seeded draws of surds, surds
    with an integer part of 10**9 and rationals, with stops at the block
    edges or anywhere below 2 * C + 2, in random order."""
    # a fresh scan runs in the blocks [2**k, 2**(k+1) - 1], so C - 1 ends
    # one block, C starts the next and C + 1 lies inside it; a resumed
    # scan's blocks start at its stop + 1
    C = 2**14
    half, third = _rat(1, 2), _rat(1, 3)
    cases = [
        ((half, SQRT3M1), "max", [C + 1, 2 * C]),
        ((SQRT2M1, half), "product", [2, 3, 2000]),
        ((half,), "product", [C - 1, C + 1]),
        ((third, _rat(2, 3)), "max", [3, 2, 2000]),
        ((third, _rat(2, 3)), "product", [1, 1500, 1499]),
        ((_rat(355, 113),), "product", [2 * C]),
        ((_rat(-3, 7),), "product", [5, 6, 7, 8]),
        ((SQRT2M1, SQRT2M1), "max", [C - 1, C, C + 1]),
        ((SQRT2M1, SQRT2M1), "product", [2 * C, C]),
        ((GOLDENM1, GOLDENM1), "max", [2 * C]),
        ((SQRT2M1, SQRT3M1), "product", [C, 2 * C, 2 * C + 1]),
        ((SQRT2M1, SQRT3M1), "max", [7, 3, C + 1, C - 1, 2 * C]),
        ((SQRT2M1 + 10**9,), "product", [C + 1]),
        ((SQRT2M1,), "product", [0, 1, 1]),
    ]
    rng = random.Random(1414)
    edges = [C - 1, C, C + 1, 2 * C, 2 * C + 1]

    def draw():
        roll = rng.random()
        if roll < 0.6:
            return rng.choice(SURD_POOL)
        if roll < 0.75:
            return rng.choice(SURD_POOL) + 10**9
        return _rat(rng.randrange(-10**6, 10**6), rng.randrange(10**4, 10**6))

    while len(cases) < 160:
        combine = rng.choice(["product", "max"])
        k = 2 if combine == "max" else rng.choice([1, 2])
        alpha = draw()
        alphas = (alpha, alpha if rng.random() < 0.1 else draw())[:k]
        stops = [
            rng.choice(edges) if rng.random() < 0.5 else rng.randrange(1, 2 * C + 2)
            for _ in range(rng.randrange(1, 4))
        ]
        cases.append((alphas, combine, stops))
    return cases


def test_residual_minima_matches_the_full_bounds_oracle():
    # the kernel lists the candidates of each dyadic block and screens them
    # on integer bounds; the oracle derives float or uint64 bounds for
    # every x on numpy arrays, then screens.  Their internal bounds differ
    # in type and in the x they run over, so only the records, X and the
    # best value are compared.
    for alphas, combine, stops in residual_scan_cases():
        scan, full = ResidualScan(alphas, combine), ResidualScan(alphas, combine)
        for X in stops:
            case = (alphas, combine, stops, X)
            assert residual_minima(scan, X) == residual_minima_full(full, X), case
            assert (scan.X, scan.best) == (full.X, full.best), case


def test_residual_minima_matches_the_oracle_at_large_resumed_stops():
    # each mode, two numbers and one: seeded pool surds (one with an
    # integer part of 10**9), resumed at random stops up to 2.5*10**6
    rng = random.Random(20261019)
    for combine, k in (("max", 2), ("product", 2), ("product", 1)) * 2:
        alphas = tuple(rng.choice(SURD_POOL) + rng.choice((0, 10**9)) for _ in range(k))
        scan, full = ResidualScan(alphas, combine), ResidualScan(alphas, combine)
        for X in sorted(rng.randrange(1, 2_500_001) for _ in range(3)):
            case = (alphas, combine, X)
            assert residual_minima(scan, X) == residual_minima_full(full, X), case
            assert (scan.X, scan.best) == (full.X, full.best), case


TWO_ALPHA_PAIRS = [(SQRT2M1, SQRT3M1), (quad(-2, 1, 1, 7), quad(-3, 1, 1, 13))]


@pytest.mark.parametrize("combine", ["product", "max"])
def test_two_alpha_records_do_not_depend_on_the_scale(combine):
    # the scale only sets how tight the integer screen is: 32 more bits
    # give the same records, at stops inside 2**32 and past it
    for alphas in TWO_ALPHA_PAIRS:
        for X in (10**6, 2**32, 2**36):
            scan = ResidualScan(alphas, combine)
            records = residual_minima(scan, X)
            wider = ResidualScan(alphas, combine, bits=scan.bits + 32)
            assert residual_minima(wider, X) == records, (alphas, X)


def _rational_with_a_late_record() -> SurdSum:
    """[0; 2 (25 times), 1, 5, 2, 2]: q*||q*alpha|| has a record at q_26 =
    4,478,554,083, just past 2**32, where the quotient 5 follows; there
    the integer lower bound of the record is positive."""
    c = convergents([0] + [2] * 25 + [1, 5, 2, 2])[-1]
    return _rat(c.p, c.q)


@pytest.mark.parametrize(
    "alphas, combine",
    [
        # sqrt(5) - 2 and (sqrt(5) - 1)/2 are dependent over Q: the product
        # has records at Fibonacci x, three of them in (2**32, 3 * 2**32]
        ((quad(-2, 1, 1, 5), quad(-1, 1, 2, 5)), "product"),
        ((SQRT2M1, SQRT3M1), "max"),
        ((_rational_with_a_late_record(),), "product"),
    ],
    ids=["product-2", "max-2", "product-1"],
)
def test_scan_resumed_across_2_to_the_32_matches_one_shot(alphas, combine):
    # each resume past 2**32 grows the scale and shifts the carried bound;
    # a bound shifted too little would drop the records past 2**32
    whole = residual_minima(ResidualScan(alphas, combine), 3 * 2**32)
    assert whole[-1][0] > 2**32 + 7
    scan, pieces = ResidualScan(alphas, combine), []
    for X in (10**6, 2**32 - 5, 2**32 + 7, 3 * 2**32):
        pieces += residual_minima(scan, X)
    assert pieces == whole
    assert scan.X == 3 * 2**32 and scan.bits == 68


def thin_set_brute(A: int, T: int, a: int, b: int, S: int) -> list[int]:
    """Oracle: every x in [a, b] with |x*A mod+- S| <= T, one by one."""
    return [x for x in range(a, b + 1) if min(x * A % S, -x * A % S) <= T]


def check_thin_set(S: int, k_max: int) -> None:
    """Each x of the thin set once, inside [a, b], none missing: A = 0, S/2
    (D = S/2 at every odd x), small, near S and random; ranges with a = b,
    a = 1, and ends at block edges 2**k +- 1 for k < k_max, at most 2**13
    long; T = 0, small, near the lattice spacing, S/2 - 1 (all but D = S/2)
    and >= S/2 (the whole range)."""
    rng = random.Random(64)
    for trial in range(600):
        A = rng.choice([0, S // 2, rng.randrange(1, 50), S - rng.randrange(1, 50), rng.randrange(S)])
        k = rng.randrange(1, k_max)
        a = rng.choice([1, rng.randrange(1, 3000), 2**k - 1, 2**k, 2**k + 1])
        b = rng.choice([a, a + rng.randrange(2000), 2 * a - 1, 2**(k + 1) - 1, 2**(k + 1) + 1])
        b = min(max(a, b), a + 2**13)
        T = rng.choice([0, rng.randrange(1, 20), rng.randrange(S // (b - a + 1)), S // 2 - 1,
                        S // 2, S + rng.randrange(S)])
        got = [x for r in _thin_set(A, T, a, b, S) for x in r]
        case = (A, T, a, b, S)
        assert len(got) == len(set(got)), case
        assert sorted(got) == thin_set_brute(A, T, a, b, S), case


def test_thin_set_matches_brute_force():
    check_thin_set(2**64, 12)


def test_thin_set_matches_brute_force_at_scale_2_96():
    # the scale of a scan past 2**48; blocks up to 2**40
    check_thin_set(2**96, 40)


def test_candidates_hold_every_x_the_screen_admits():
    # a record has lo(x) < bound, so _candidates must list every x of the
    # block with lo(x) < bound (computed here for every x).  Each bound is
    # lo + 1 at a random x and at the block end b, where D(x) = T is
    # reached: a threshold T one too small drops that x
    M = 1 << 64
    rng = random.Random(4711)
    for trial in range(300):
        is_max, k = rng.choice([(True, 2), (False, 2), (False, 1)])
        mults = [rng.choice([0, 2**63, rng.randrange(1, 50), rng.randrange(M)]) for _ in range(k)]
        a = rng.choice([1, 2, rng.randrange(1, 3000), 2 ** rng.randrange(1, 12)])
        b = rng.choice([a, min(2 * a - 1, a + rng.randrange(3000)), 2 * a - 1])
        xs = list(range(a, b + 1))
        dists = [_distances(A, xs, M) for A in mults]
        if is_max:
            lows = [max(max(ds) - x, 0) for x, ds in zip(xs, zip(*dists))]
        else:
            lows = [x * math.prod(max(d - x, 0) for d in ds) for x, ds in zip(xs, zip(*dists))]
        for i in (rng.randrange(len(xs)), len(xs) - 1):
            bound = lows[i] + 1
            got = _candidates(mults, is_max, bound, a, b, M)
            case = (is_max, mults, a, b, bound)
            assert got == sorted(set(got)) and all(a <= x <= b for x in got), case
            assert {x for x, lo in zip(xs, lows) if lo < bound} <= set(got), case


def check_residual_bounds(S: int, x_max: int) -> None:
    """D - x < S * ||x*alpha|| < D + x for the kernel's D = |x*A mod+- S|,
    A = floor(frac(alpha) * S), for x up to x_max, integer parts up to
    10**9, radicands up to 10**6, and rational alpha; alpha = 1/2 makes
    D = S/2 at every odd x."""
    rng = random.Random(20261018)
    for trial in range(81):
        if trial == 80:
            alpha = SurdSum.from_rational(Fraction(1, 2))
        elif trial % 4 == 0:
            alpha = SurdSum.from_rational(
                Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**6))
            )
        else:
            alpha = quad(
                rng.randrange(-999, 1000),
                rng.choice((-1, 1)) * rng.randrange(1, 1000),
                rng.randrange(1, 1000),
                rng.randrange(2, 10**6 + 1),
            ) + rng.randrange(-10**9, 10**9 + 1)
        xs = [1, 2, x_max - 1, x_max]
        xs += [rng.randrange(1, x_max + 1) for _ in range(6)]
        xs += [rng.randrange(1, 10**6) for _ in range(2)]
        A = ((alpha - alpha.floor()) * S).floor()
        for x, D in zip(xs, _distances(A, xs, S)):
            scaled = (alpha * x).nearest()[1].abs() * S
            assert certified_sign(scaled - (D - x)) > 0, (alpha, x)
            assert certified_sign(D + x - scaled) > 0, (alpha, x)


def test_integer_residual_bounds_enclose_the_exact_residual():
    check_residual_bounds(2**64, 2**32)


def test_integer_residual_bounds_enclose_the_exact_residual_at_scale_2_96():
    check_residual_bounds(2**96, 2**40)


# -- lcm times ---------------------------------------------------------------


def test_convergent_beyond_rational_expansion():
    from littlewood.cfrac import CFError

    with pytest.raises(CFError):
        convergent(CFSpec.from_surd(Fraction(7, 5)), 10)


def test_lcm_time_example():
    assert convergent(SPEC_SQRT2M1, 2).q == 5
    assert convergent(SPEC_SQRT3M1, 2).q == 3
    assert lcm_time(SPEC_SQRT2M1, SPEC_SQRT3M1, 1) == 15


def test_lcm_time_equal_and_coprime():
    assert lcm_time(SPEC_SQRT2M1, SPEC_SQRT2M1, 3) == convergent(SPEC_SQRT2M1, 6).q
    qa = convergent(SPEC_SQRT2M1, 4).q
    qb = convergent(SPEC_GOLDENM1, 4).q
    if math.gcd(qa, qb) == 1:
        assert lcm_time(SPEC_SQRT2M1, SPEC_GOLDENM1, 2) == qa * qb


def test_lcm_time_bounds_hold():
    lam = (max(_observed_M(SPEC_SQRT2M1), _observed_M(SPEC_SQRT3M1)) + 1) ** 2
    assert lam == 9
    for n in range(1, 15):
        t = lcm_time(SPEC_SQRT2M1, SPEC_SQRT3M1, n)
        assert 2 ** (n - 1) <= t <= lam ** (2 * n)


# purely periodic without --frac (empty preperiod, a_0 recurs as a_1, a_2,
# ...), and [0; period] with it; the true sup of a_j (j >= 1)
PURELY_PERIODIC_M = [("quad:1,1,1,2", 2), ("quad:2,1,1,5", 4), ("quad:1,1,1,3", 2), ("quad:1,1,2,5", 1)]


@pytest.mark.parametrize("frac", [False, True])
@pytest.mark.parametrize("text, M", PURELY_PERIODIC_M)
def test_observed_M_counts_a_purely_periodic_a0(text, M, frac):
    assert _observed_M(parse_number_spec(text, frac)) == M


def test_lcm_time_bounds_hold_on_purely_periodic_inputs():
    specs = [parse_number_spec(text) for text, _ in PURELY_PERIODIC_M]
    for a_spec in specs:
        for b_spec in specs:
            lam = (max(_observed_M(a_spec), _observed_M(b_spec)) + 1) ** 2
            for n in range(1, 11):
                t = lcm_time(a_spec, b_spec, n)
                assert 2 ** (n - 1) <= t <= lam ** (2 * n)


def test_lcm_growth_profile():
    prof = lcm_growth_profile(SPEC_SQRT2M1, SPEC_SQRT3M1, 16)
    assert 0 < prof.liminf_estimate <= prof.limsup_estimate
    assert len(prof.quotients) == 16
