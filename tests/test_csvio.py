"""format_decimal against the Fraction implementation it replaced, the
integer entry points against format_decimal, argument checks, and
render_csv: its streamed rows and deferred metadata, and its bytes
against the csv module's writer."""

import csv
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from littlewood.cone import ConeParams, InclusionRun
from littlewood.csvio import (
    _POW10,
    SIG_DIGITS,
    format_decimal,
    format_ratio,
    format_ratio_bounds,
    render_csv,
)

from nums import SQRT2M1, SQRT3M1


def fraction_format_decimal(x, sig: int = SIG_DIGITS, direction: int = 0) -> str:
    """The former implementation: e10 and the rounding on Fractions."""
    x = Fraction(x)
    if x == 0:
        return "0"
    neg = x < 0
    ax = -x if neg else x
    e10 = len(str(ax.numerator)) - len(str(ax.denominator))
    while ax >= Fraction(10) ** (e10 + 1):
        e10 += 1
    while ax < Fraction(10) ** e10:
        e10 -= 1
    shift = sig - 1 - e10
    scaled = x * Fraction(10) ** shift  # signed; |scaled| in [10^(sig-1), 10^sig)
    if direction < 0:
        m = scaled.numerator // scaled.denominator
    elif direction > 0:
        m = -((-scaled.numerator) // scaled.denominator)
    else:
        half = Fraction(1, 2) if x > 0 else -Fraction(1, 2)
        t = scaled + half
        m = t.numerator // t.denominator if x > 0 else -((-t.numerator) // t.denominator)
    mag = abs(m)
    if mag >= 10**sig:
        mag //= 10
        e10 += 1
    digits = str(mag).rjust(sig, "0")
    if -4 <= e10 < sig:
        if e10 >= 0:
            intpart, fracpart = digits[: e10 + 1], digits[e10 + 1 :]
        else:
            intpart, fracpart = "0", "0" * (-e10 - 1) + digits
        fracpart = fracpart.rstrip("0")
        body = intpart + ("." + fracpart if fracpart else "")
    else:
        mantissa = digits[0] + ("." + digits[1:].rstrip("0") if digits[1:].rstrip("0") else "")
        body = f"{mantissa}e{e10:+03d}"
    return ("-" if neg else "") + body


DIRECTIONS = (-1, 0, 1)


def _agree(x, sig=SIG_DIGITS):
    for direction in DIRECTIONS:
        assert format_decimal(x, sig, direction) == fraction_format_decimal(x, sig, direction), (
            x, sig, direction)


def test_random_rationals_match_the_fraction_oracle():
    rng = random.Random(20261018)
    for _ in range(4000):
        num = rng.randrange(1, 10 ** rng.randrange(1, 61))
        den = rng.randrange(1, 10 ** rng.randrange(1, 61))
        x = Fraction(rng.choice((-1, 1)) * num, den)
        sig = rng.choice((SIG_DIGITS, SIG_DIGITS, rng.randrange(1, 21)))
        _agree(x, sig)
        # the integer entry point takes the value unreduced
        k = rng.randrange(1, 10**6)
        direction = rng.choice(DIRECTIONS)
        assert format_ratio(x.numerator * k, x.denominator * k, sig, direction) == (
            format_decimal(x, sig, direction))


def test_dyadic_rationals_match_the_fraction_oracle():
    # the shape of the cone CSV cells: interval midpoints and sample
    # numerators over powers of two
    rng = random.Random(7)
    for _ in range(1000):
        x = Fraction(rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 300)) + 1,
                     1 << rng.randrange(0, 300))
        _agree(x)


@pytest.mark.parametrize("sig", range(1, 21))
def test_powers_of_ten_neighbours_and_ties(sig):
    for k in range(-25, 26):
        p = Fraction(10) ** k
        ulp = Fraction(1, 10 ** (sig + 40))
        cases = [p, p - ulp * p, p + ulp * p, p - Fraction(1, 10**60), p + Fraction(1, 10**60)]
        # exact ties at the last printed digit: d.dd...d5 * 10^k
        for digits in (5, 15, 25, 95, 10**sig - 5, 10**sig + 5):
            cases.append(Fraction(digits) / 10 ** (len(str(digits)) - 1) * p)
        # values that round up to the next power of ten
        cases.append(p * (1 - Fraction(1, 2 * 10**sig)))
        cases.append(p * (1 - Fraction(1, 10 ** (sig + 1))))
        for x in cases:
            _agree(x, sig)
            _agree(-x, sig)


def test_ints_and_small_values():
    for x in (0, 1, -1, 9, 10, 11, 99, 100, 10**15 - 1, 10**15, 10**15 + 1, 10**40 + 5,
              -(10**20) + 1, Fraction(1, 3), Fraction(-2, 3), Fraction(5, 10**5)):
        _agree(x)
        for sig in (1, 2, 20):
            _agree(x, sig)
    assert format_decimal(True) == "1"


@pytest.mark.parametrize("sig", [1, SIG_DIGITS, len(_POW10) - 1, len(_POW10), len(_POW10) + 1])
def test_scale_shifts_at_the_ends_of_the_powers_of_ten_table(sig):
    # shifts and sig just inside, at and past the last table entry, either
    # way: 10**k read from the table, or computed past it
    n = len(_POW10)
    for shift in (n - 2, n - 1, n, n + 1):
        for e10 in (sig - 1 - shift, sig - 1 + shift):
            p = Fraction(10) ** e10
            for x in (p, p * Fraction(10**sig + 1, 10**sig), p * Fraction(7, 3)):
                _agree(x, sig)
                _agree(-x, sig)
                _bounds(x.numerator, x.denominator, sig)


def test_a_low_exponent_estimate_is_raised_on_the_quotient():
    # log10(50) - log10(5) reads 0.9999999999999999 in floats, so the
    # exponent estimate is one decade low and the quotient check lifts it;
    # 10 + 3/den rounded up shows the lift, since at the low decade the
    # last digit of the rounded-up mantissa would be cut off
    assert format_ratio(50, 5) == "10"
    den = 6503356840225830229637
    assert format_ratio(10 * den + 3, den, direction=1) == "10.0000000000001"


def test_streamed_rows_and_deferred_metadata():
    seen = []

    def rows():
        for i in range(3):
            seen.append(i)
            yield [i, format_decimal(Fraction(i, 4))]

    text = render_csv(["i", "q"], rows(), lambda: {"rows": len(seen)})
    assert text == "i,q\n0,0\n1,0.25\n2,0.5\n# rows = 3\n"
    assert render_csv(["i"], [[1]], {"a": 1}) == "i\n1\n# a = 1\n"


def csv_module_text(header, rows, metadata=None) -> str:
    """render_csv by the csv module's writer alone, every row quoted as it
    decides."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([str(cell) for cell in row])
    if callable(metadata):
        metadata = metadata()
    for key in metadata or {}:
        buf.write(f"# {key} = {metadata[key]}\n")
    return buf.getvalue()


# cells that need quoting, cells that do not, and the ones at the edge:
# spaces, empty strings and non-str cells
_text_cells = st.text(alphabet=st.sampled_from(list(',"\r\n ab1.-e+')), max_size=6)
_cells = st.one_of(
    _text_cells,
    st.sampled_from(["", " ", ",", '"', "\r", "\n", "\r\n", 'a"b', "a,b", "ok"]),
    st.integers(),
    st.booleans(),
    st.fractions(max_denominator=1000),
)
_rows = st.lists(st.lists(_cells, max_size=5), max_size=8)


@settings(max_examples=150, deadline=None)
@given(_rows)
def test_render_csv_writes_what_the_csv_module_writes(rows):
    rows = [*rows, [""], [], [" "], [True, 0, Fraction(-1, 3)]]
    assert render_csv(["h", "i"], rows) == csv_module_text(["h", "i"], rows)


@settings(max_examples=50, deadline=None)
@given(_rows)
def test_render_csv_streams_rows_with_callable_metadata(rows):
    def streamed():
        yield from (tuple(row) for row in rows)

    def metadata():
        return {"rows": len(rows), "cells": sum(map(len, rows))}

    assert render_csv(["h"], streamed(), metadata) == csv_module_text(["h"], rows, metadata)


def test_render_csv_quotes_only_where_the_csv_module_does():
    rows = [[""], [], ["", ""], ["a,b", 1], ['say "x"'], ["a\nb", ""], [" a "]]
    text = render_csv(["h"], rows)
    assert text == 'h\n""\n\n,\n"a,b",1\n"say ""x"""\n"a\nb",\n a \n'
    assert text == csv_module_text(["h"], rows)


# -- the paired renderer --------------------------------------------------


def _bounds(num: int, den: int, sig: int = SIG_DIGITS) -> tuple[str, str]:
    """format_ratio_bounds, checked against two format_decimal calls and
    for enclosure of num/den."""
    x = Fraction(num, den)
    lo, hi = format_ratio_bounds(num, den, sig)
    assert (lo, hi) == (format_decimal(x, sig, -1), format_decimal(x, sig, 1)), (num, den, sig)
    assert Fraction(lo) <= x <= Fraction(hi)
    return lo, hi


def test_bounds_of_random_rationals():
    rng = random.Random(12)
    for _ in range(3000):
        num = rng.choice((-1, 1)) * rng.randrange(1, 10 ** rng.randrange(1, 41))
        den = rng.randrange(1, 10 ** rng.randrange(1, 41))
        _bounds(num, den, rng.randrange(1, 21))


def test_bounds_of_dyadic_rationals_and_cone_cells():
    rng = random.Random(7)
    for _ in range(1000):
        num = rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 300)) + 1
        _bounds(num, 1 << rng.randrange(0, 300))
    # the margin and f cells of sampled cone rows, unreduced
    params = ConeParams.make(30, Fraction(3, 10**4))
    for smp in InclusionRun(SQRT2M1, SQRT3M1, params, 200, seed=4):
        _bounds(*smp.margin_ratio)
        _bounds(*smp.f_ratio)


@pytest.mark.parametrize("sig", range(1, 21))
def test_bounds_of_exact_decimals_carries_and_powers_of_ten(sig):
    top = 10**sig
    for k in range(-25, 26):
        scale_num, scale_den = (10**k, 1) if k >= 0 else (1, 10**-k)
        for sign in (1, -1):
            # exact powers of ten, and exact decimals of at most sig digits
            for digits in (1, 7, top // 3, top - 1):
                lo, hi = _bounds(sign * digits * scale_num, scale_den, sig)
                assert lo == hi
            # ...999.5 and ...999 + 1/3: the upper magnitude carries to 10**sig
            for num, den in ((2 * top - 1, 2), (3 * top - 2, 3)):
                lo, hi = _bounds(sign * num * scale_num, den * scale_den, sig)
                carried = Fraction(sign * top * scale_num, scale_den)
                assert Fraction(hi if sign > 0 else lo) == carried
                assert Fraction(lo if sign > 0 else hi) == carried - sign * Fraction(scale_num, scale_den)


def test_bounds_swap_ends_for_negative_values():
    for num, den in ((7, 3), (1, 10**30 + 7), (10**40 + 1, 9), (2**200 + 1, 2**100)):
        lo, hi = _bounds(num, den)
        neg_lo, neg_hi = _bounds(-num, den)
        assert lo != hi and (neg_lo, neg_hi) == ("-" + hi, "-" + lo)
    assert format_ratio_bounds(0, 5) == ("0", "0")


# -- argument checks ------------------------------------------------------


@pytest.mark.parametrize("sig", [0, -1])
def test_sig_below_one_is_rejected(sig):
    with pytest.raises(ValueError, match="sig"):
        format_decimal(Fraction(7, 3), sig, 1)
    with pytest.raises(ValueError, match="sig"):
        format_ratio(7, 3, sig)
    with pytest.raises(ValueError, match="sig"):
        format_ratio_bounds(7, 3, sig)


@pytest.mark.parametrize("direction", [5, 2, -2])
def test_unknown_direction_is_rejected(direction):
    with pytest.raises(ValueError, match="direction"):
        format_decimal(Fraction(7, 3), direction=direction)
    with pytest.raises(ValueError, match="direction"):
        format_ratio(7, 3, direction=direction)


@pytest.mark.parametrize("den", [0, -3])
def test_nonpositive_denominator_is_rejected(den):
    for num in (7, 0):
        with pytest.raises(ValueError, match="denominator"):
            format_ratio(num, den)
        with pytest.raises(ValueError, match="denominator"):
            format_ratio_bounds(num, den)
