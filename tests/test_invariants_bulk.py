"""Bulk randomized invariants at the advertised sample sizes (seeded, so
deterministic).  The per-case assertions also run as hypothesis properties
elsewhere; these loops pin the larger counts."""

import random
from fractions import Fraction

from littlewood.exactnum import (
    SurdSum,
    certified_sign,
    squarefree_decompose,
)
from littlewood.lattice import LatticePoint, f_exact, m_transform

from nums import SQRT2M1, SQRT3M1, quad


def _random_raw_surd(rng):
    return quad(
        rng.randrange(-200, 201),
        rng.randrange(-200, 201),
        rng.choice([c for c in range(-40, 41) if c]),
        rng.randrange(0, 500),
    )


def test_normalize_idempotent_bulk():
    rng = random.Random(101)
    for _ in range(10_000):
        s = _random_raw_surd(rng)
        assert SurdSum(dict(s.terms())) == s
        assert all(squarefree_decompose(rad)[0] == 1 for rad, _ in s.terms())


def test_compare_agrees_with_interval_bulk():
    rng = random.Random(102)
    for _ in range(10_000):
        s = _random_raw_surd(rng)
        r = Fraction(rng.randrange(-500, 501), rng.randrange(1, 100))
        iv = s.interval(128)
        if iv.hi < r:
            assert certified_sign(s - r) == -1
        elif iv.lo > r:
            assert certified_sign(s - r) == 1
        else:
            # interval straddles r only if the values actually tie
            assert certified_sign(s - r) == 0


def test_linear_form_nonzero_bulk():
    rng = random.Random(103)
    radicands = [2, 3, 5, 6, 7, 10, 11, 13]
    for _ in range(1_000):
        alpha = SurdSum.sqrt(rng.choice(radicands))
        x = rng.randrange(1, 5_000)
        y = rng.randrange(-10_000, 10_000)
        assert certified_sign(alpha * x - y) != 0


def test_f_nonzero_on_lattice_bulk():
    rng = random.Random(104)
    for _ in range(10_000):
        x = rng.randrange(1, 2_000)
        y = rng.randrange(-3_000, 3_000)
        z = rng.randrange(-3_000, 3_000)
        assert certified_sign(f_exact(SQRT2M1, SQRT3M1, x, y, z)) != 0


def test_transform_identity_bulk():
    rng = random.Random(105)
    for _ in range(1_000):
        p = LatticePoint(
            rng.randrange(0, 300), rng.randrange(-400, 400), rng.randrange(-400, 400)
        )
        a, b, c = m_transform(SQRT2M1, SQRT3M1, p)
        assert (a * b * c - f_exact(SQRT2M1, SQRT3M1, *tuple(p))).is_zero()
