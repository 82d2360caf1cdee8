"""Cone membership, tangency identities, inclusion sampling, and the
reported coordinates of sampled points."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from littlewood.cone import (
    _CHUNK,
    _CROSSCHECKS,
    ConeParams,
    InclusionRun,
    InclusionSample,
    base_tangency,
    cone_contains,
    phi,
    sample_point_coordinates,
    sample_point_midpoints,
    _sample_chunk,
)
from littlewood.cfrac import cf_expand
from littlewood.exactnum import SurdSum, as_surdsum, squarefree_decompose
from littlewood.lattice import LatticePoint, ParameterError, f_eval, f_exact
from littlewood.numspec import parse_number_spec

from nums import SQRT2M1, SQRT3M1, quad


AV, BV = as_surdsum(SQRT2M1), as_surdsum(SQRT3M1)


def test_phi_examples():
    assert phi(2, Fraction(1, 2)) == Fraction(1, 2)
    assert phi(10, Fraction(1, 100)) == Fraction(1, 40500)
    values = [phi(N, Fraction(1, 10)) for N in range(2, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))  # decreasing in N


def test_phi_rejects_bad_params():
    with pytest.raises(ParameterError):
        phi(1, Fraction(1, 2))
    with pytest.raises(ParameterError):
        phi(5, Fraction(0))


def test_axis_points_inside():
    params = ConeParams.make(10, Fraction(1, 10))
    for t in (Fraction(1), Fraction(7, 2), Fraction(10)):
        v = cone_contains(SQRT2M1, SQRT3M1, (t, AV * t, BV * t), params)
        assert v.inside


def test_vertex_margin_exactly_zero():
    params = ConeParams.make(10, Fraction(1, 10))
    v = cone_contains(SQRT2M1, SQRT3M1, (Fraction(10), AV * 10, BV * 10), params)
    assert v.inside and v.margin_sign == 0
    assert v.margin.lo == 0 == v.margin.hi


def test_base_circle_margin_exactly_zero():
    # boundary point at x = 1 via the rational unit vector (3/5, 4/5)
    params = ConeParams.make(10, Fraction(1, 10))
    s = SurdSum.sqrt(params.phi) * (params.N - 1)
    p = (Fraction(1), AV - Fraction(3, 5) * s, BV - Fraction(4, 5) * s)
    v = cone_contains(SQRT2M1, SQRT3M1, p, params)
    assert v.inside and v.margin_sign == 0
    # lhs at x = 1 equals 2*eps/N exactly
    lhs = (Fraction(3, 5) * s) ** 2 + (Fraction(4, 5) * s) ** 2
    assert lhs.as_fraction() == Fraction(2 * params.epsilon, params.N)


def test_x_range_enforced():
    params = ConeParams.make(10, Fraction(1, 10))
    v = cone_contains(SQRT2M1, SQRT3M1, (Fraction(11), AV * 11, BV * 11), params)
    assert not v.inside and not v.x_in_range
    v = cone_contains(SQRT2M1, SQRT3M1, (Fraction(1, 2), AV / 2, BV / 2), params)
    assert not v.inside and not v.x_in_range


def test_membership_monotone_in_epsilon():
    small = ConeParams.make(10, Fraction(1, 50))
    big = ConeParams.make(10, Fraction(1, 5))
    rng = random.Random(5)
    for _ in range(40):
        x = 1 + Fraction(rng.getrandbits(20), 1 << 20) * 9
        u = Fraction(rng.getrandbits(20), 1 << 20) * 2 - 1
        v = Fraction(rng.getrandbits(20), 1 << 20) * 2 - 1
        s = SurdSum.sqrt(small.phi) * (small.N - x)
        p = (x, AV * x - u * s, BV * x - v * s)
        in_small = cone_contains(SQRT2M1, SQRT3M1, p, small).inside
        if in_small:
            assert cone_contains(SQRT2M1, SQRT3M1, p, big).inside


def test_tangency_examples():
    tg = base_tangency(Fraction(1, 2))
    assert (tg.radius * tg.radius).as_fraction() == 1  # radius = 1
    assert tg.discriminant_is_zero and tg.on_hyperbola
    tg = base_tangency(Fraction(2))
    assert tg.radius == as_surdsum(2)  # sqrt(2*2) collapses to the integer 2
    assert tg.point[1] == SurdSum.sqrt(2)


def test_tangency_random_rationals():
    rng = random.Random(99)
    for _ in range(20):
        eps = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
        tg = base_tangency(eps)
        assert tg.discriminant_is_zero
        assert tg.on_hyperbola
        assert (tg.radius * tg.radius).as_fraction() == 2 * eps
        assert (tg.point[1] * tg.point[2]).as_fraction() == eps


def test_inclusion_sampling_no_violations():
    params = ConeParams.make(12, Fraction(1, 8))
    run = InclusionRun(SQRT2M1, SQRT3M1, params, 3000, seed=11)
    for smp in run:
        # every row, not only the run's own every (3000 // 32)-th: the
        # integer f equals f_exact at the exact SurdSum point
        # (x, alpha*x - u*s, beta*x - v*s), s = sqrt(phi)*(N - x)
        x = smp.x
        s = run.sqrt_phi * (params.N - x)
        y = run.alpha * x - smp.u * s
        z = run.beta * x - smp.v * s
        assert f_exact(run.alpha, run.beta, x, y, z) == smp.f
    assert not run.violations and run.samples == 3000
    assert run.crosschecked > 0


def test_sampled_lattice_like_points_satisfy_f_bound():
    # every sampled point's f, recomputed through f_eval coordinates, obeys
    # 0 < |f| <= eps
    params = ConeParams.make(8, Fraction(1, 9))
    rows = list(InclusionRun(SQRT2M1, SQRT3M1, params, 200, seed=4))
    for smp in rows[::17]:
        assert 0 < abs(smp.f) <= params.epsilon


def test_lattice_points_in_cone_satisfy_f_bound():
    # sweep a small box; any lattice point inside the cone must satisfy
    # 0 < |f| <= eps (the inclusion, checked through f_eval); eps is taken
    # large enough that the thin cone actually catches lattice points
    params = ConeParams.make(6, Fraction(2))
    found = 0
    for x in range(1, 7):
        for y in range(0, 7):
            for z in range(0, 9):
                p = LatticePoint(x, y, z)
                if cone_contains(SQRT2M1, SQRT3M1, p, params).inside:
                    found += 1
                    fe = f_eval(SQRT2M1, SQRT3M1, p, params.epsilon)
                    assert fe.sign != 0 and fe.vs_epsilon in ("below", "equal")
    assert found >= 1  # the box does catch cone points at this eps


def test_sample_point_coordinates_consistent():
    params = ConeParams.make(7, Fraction(1, 5))
    run = InclusionRun(SQRT2M1, SQRT3M1, params, 50, seed=2)
    smp = next(iter(run))
    y_iv, z_iv = sample_point_coordinates(run, smp)
    assert y_iv.width < Fraction(1, 10**20) and z_iv.width < Fraction(1, 10**20)


def fraction_sample_chunk(args):
    """The former sampler: the same draws, as Fractions.  Returns the rows
    as (x, u, v, f, margin) and the violating rows."""
    N, epsilon, phi_val, seed, chunk_index, count = args
    rng = random.Random(seed * 1_000_003 + chunk_index)

    def unit():
        return Fraction(rng.getrandbits(53), 1 << 53)

    rows, violations = [], []
    for _ in range(count):
        x = 1 + (N - 1) * unit()
        while True:
            u = 2 * unit() - 1
            v = 2 * unit() - 1
            if u != 0 and v != 0 and u * u + v * v < 1:
                break
        slack2 = (N - x) * (N - x)
        f = x * u * v * phi_val * slack2
        margin = (u * u + v * v - 1) * phi_val * slack2
        rows.append((x, u, v, f, margin))
        if not (0 < abs(f) <= epsilon) or margin > 0:
            violations.append(rows[-1])
    return rows, violations


def _fractions(sample):
    return (sample.x, sample.u, sample.v, sample.f, sample.margin)


def fraction_inclusion_rows(params, sample_count, seed):
    rows = []
    for i in range((sample_count + _CHUNK - 1) // _CHUNK):
        count = min(_CHUNK, sample_count - i * _CHUNK)
        rows += fraction_sample_chunk((params.N, params.epsilon, params.phi, seed, i, count))[0]
    return rows


@pytest.mark.parametrize(
    "N, eps, seed, count",
    [
        (2, Fraction(1, 10**12), 0, 1),
        (2, Fraction(1, 10**12), 9, 300),
        (10, Fraction(1, 10), 0, 1),
        (10, Fraction(1, 10), 5, _CHUNK + 301),  # not a whole number of chunks
        (37, Fraction(3, 7), 12345, 2 * _CHUNK),
        (1000, Fraction(2, 10**6), 2**40, 500),
    ],
)
def test_integer_sampler_matches_fraction_oracle(N, eps, seed, count):
    params = ConeParams.make(N, eps)
    run = InclusionRun(SQRT2M1, SQRT3M1, params, count, seed=seed)
    rows = list(run)
    assert [_fractions(s) for s in rows] == fraction_inclusion_rows(params, count, seed)
    assert run.samples == count and not run.violations
    assert run.crosschecked == len(rows[:: max(1, count // 32)])


@pytest.mark.parametrize(
    "eps_factor, phi_sign",
    [(Fraction(1, 1000), 1), (Fraction(1, 20), 1), (Fraction(0), 1), (Fraction(1), -1)],
)
def test_integer_violation_verdicts_match_fraction_oracle(eps_factor, phi_sign):
    # a chunk told a smaller (or zero) epsilon than its cone's, or a negated
    # phi (every margin positive), must flag exactly the rows the Fraction
    # comparisons flag
    params = ConeParams.make(15, Fraction(1, 5))
    args = (params.N, params.epsilon * eps_factor, params.phi * phi_sign, 4, 1, 600)
    rows = _sample_chunk(*args)
    expected_rows, expected_violations = fraction_sample_chunk(args)
    assert [_fractions(s) for s in rows] == expected_rows
    flagged = [_fractions(s) for s in rows if s.violation]
    assert flagged == expected_violations
    assert 0 < len(flagged) <= len(rows)


def test_integer_violation_verdict_at_the_epsilon_tie():
    # |f| = eps exactly is inside the body (the bound is closed)
    params = ConeParams.make(15, Fraction(1, 5))
    args = (params.N, params.epsilon, params.phi, 4, 1, 50)
    tie = abs(fraction_sample_chunk(args)[0][7][3])
    rows = _sample_chunk(params.N, tie, params.phi, 4, 1, 50)
    assert not rows[7].violation and abs(rows[7].f) == tie
    expected = fraction_sample_chunk((params.N, tie, params.phi, 4, 1, 50))[1]
    assert [_fractions(s) for s in rows if s.violation] == expected != []


def test_inclusion_run_streams_the_report():
    params = ConeParams.make(9, Fraction(1, 7))
    run = InclusionRun(SQRT2M1, SQRT3M1, params, 700, seed=3)
    rows = []
    for sample in run:
        rows.append(sample)
        assert run.samples == len(rows)
    again = InclusionRun(SQRT2M1, SQRT3M1, params, 700, seed=3)
    assert rows == list(again) and run.violations == again.violations == []
    assert [_fractions(s) for s in rows] == fraction_inclusion_rows(params, 700, 3)
    assert run.crosschecked == again.crosschecked == len(rows[:: 700 // _CROSSCHECKS]) == 34
    with pytest.raises(ParameterError):
        InclusionRun(SQRT2M1, SQRT3M1, params, 0)
    # seed 0 is the least seed; -1 would draw the rows of seed 1
    assert list(InclusionRun(SQRT2M1, SQRT3M1, params, 3, seed=0))
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        InclusionRun(SQRT2M1, SQRT3M1, params, 3, seed=-1)


def test_sample_point_coordinates_match_the_surd_route():
    # the coordinates are the interval(128) enclosures of the exact SurdSums
    # alpha*x - u*s and beta*x - v*s, term for term, with s = sqrt(phi)*(N-x)
    # = k*sqrt(2*eps/N)*(N-x)
    alpha2 = quad(3, 5, 7, 2)  # (3 + 5 sqrt 2)/7
    cases = [
        # 2*eps/N = 1/50: the radicand 2 of s merges with alpha's
        (SQRT2M1, SQRT3M1, ConeParams.make(10, Fraction(1, 10))),
        # 2*eps/N = 1/4: s is rational and merges with alpha's rational part
        (alpha2, SQRT3M1, ConeParams.make(8, Fraction(1))),
        # 2*eps/N = 1/9 and a rational beta: z has one rational term
        (alpha2, Fraction(5, 3), ConeParams.make(6, Fraction(1, 3))),
        # 2*eps/N = 9/40: s brings a third radicand, 10
        (SurdSum.sqrt(5), SurdSum.sqrt(7), ConeParams.make(40, Fraction(9, 2))),
    ]
    for alpha, beta, params in cases:
        run = InclusionRun(alpha, beta, params, 60, seed=1)
        assert run.sqrt_phi == SurdSum.sqrt(params.phi)
        for smp in run:
            s = SurdSum.sqrt(params.phi) * (params.N - smp.x)
            y = as_surdsum(alpha) * smp.x - smp.u * s
            z = as_surdsum(beta) * smp.x - smp.v * s
            y_iv, z_iv = sample_point_coordinates(run, smp)
            assert y_iv == y.interval(128) and z_iv == z.interval(128)
            assert y_iv.exp == y.interval(128).exp


def test_sample_point_coordinates_when_a_term_cancels():
    # N = 2, eps = 2: s = sqrt(2)*(N - x) exactly, so at x = 1, u = 1/64 the
    # sqrt(2) coefficient of y = alpha*x - u*s cancels for alpha with sqrt(2)
    # coefficient 1/64; the enclosure must then count one term fewer
    params = ConeParams.make(2, Fraction(2))
    one = 1 << 53
    smp = InclusionSample(one, one >> 6, one >> 1, 0, 0, params.phi.denominator, False)
    for alpha in (quad(0, 1, 64, 2), quad(1, 1, 64, 2)):
        s = SurdSum.sqrt(params.phi) * (params.N - smp.x)
        y = as_surdsum(alpha) * smp.x - smp.u * s
        z = as_surdsum(SQRT3M1) * smp.x - smp.v * s
        assert len(y.terms()) == len(as_surdsum(alpha).terms()) - 1
        run = InclusionRun(alpha, SQRT3M1, params, 1)
        y_iv, z_iv = sample_point_coordinates(run, smp)
        assert y_iv == y.interval(128) and y_iv.exp == y.interval(128).exp
        assert z_iv == z.interval(128) and z_iv.exp == z.interval(128).exp


def test_row_midpoints_are_the_reported_coordinate_midpoints():
    # the numerators a cone-check row renders, over the run's fixed
    # denominators, are the midpoints of sample_point_coordinates: on
    # seeded runs, and on the shape whose sqrt(2) term cancels (N = 2,
    # eps = 2, quad:0,1,64,2 with sqrt:3 at x = 1, u = 1/64), where the
    # enclosure has a precision of its own
    one = 1 << 53
    cases = [
        (SQRT2M1, SQRT3M1, ConeParams.make(10, Fraction(1, 10)), 300, 1),
        (quad(1, 1, 2, 2917), quad(3, 2, 5, 2963), ConeParams.make(199, Fraction(7, 10**4)),
         300, 7),
        (quad(3, 5, 7, 2), SQRT3M1, ConeParams.make(8, Fraction(4)), 200, 2),
        (quad(0, 1, 64, 2), SQRT3M1, ConeParams.make(2, Fraction(2)), 200, 5),
    ]
    cancelled = 0
    for alpha, beta, params, count, seed in cases:
        run = InclusionRun(alpha, beta, params, count, seed)
        _, y_den, z_den, _, _ = run.denominators
        samples = list(run)
        if params.N == 2:
            samples.append(
                InclusionSample(one, one >> 6, one >> 1, 0, 0, params.phi.denominator, False)
            )
        for smp in samples:
            y, z = sample_point_midpoints(run, smp)
            y_iv, z_iv = sample_point_coordinates(run, smp)
            assert Fraction(y, y_den) == y_iv.midpoint() and Fraction(z, z_den) == z_iv.midpoint()
            assert z_den == 2 << z_iv.exp
            cancelled += y_den != 2 << y_iv.exp
    for alpha in (quad(0, 1, 64, 2), quad(1, 1, 64, 2)):
        run = InclusionRun(alpha, SQRT3M1, ConeParams.make(2, Fraction(2)), 1)
        smp = InclusionSample(one, one >> 6, one >> 1, 0, 0, 1, False)
        (y, _), (y_iv, _) = (sample_point_midpoints(run, smp),
                             sample_point_coordinates(run, smp))
        assert Fraction(y, run.denominators[1]) == y_iv.midpoint()
        cancelled += run.denominators[1] != 2 << y_iv.exp
    assert cancelled == 1  # quad(1, 1, 64, 2): two terms, one left


def _sample_a_fresh_number(i, d, params):
    spec = parse_number_spec(f"quad:{i % 7},1,{1 + i % 5},{d}", frac=True)
    cf_expand(spec, 20)
    run = InclusionRun(spec.value(), SQRT3M1, params, 8, seed=i)
    for smp in run:
        sample_point_coordinates(run, smp)


def test_fresh_numbers_leave_no_state_behind():
    # what is built for one number lives on its spec or its run, or in a
    # cache of fixed size, so once those caches are warm the traced memory
    # stays flat however many fresh numbers follow (squarefree radicands,
    # so that each number brings a radicand of its own)
    params = ConeParams.make(12, Fraction(1, 8))
    radicands = [d for d in range(2, 1000) if squarefree_decompose(d)[0] == 1][:300]
    tracemalloc.start()
    try:
        for i, d in enumerate(radicands, 1):
            _sample_a_fresh_number(i, d, params)
            if i == 30:
                gc.collect()  # a full collection also empties the free lists
                warm = tracemalloc.get_traced_memory()[0]
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - warm
    finally:
        tracemalloc.stop()
    assert len(radicands) == 300
    assert grown < 16 * 1024, f"{grown} bytes kept by 270 fresh numbers"
