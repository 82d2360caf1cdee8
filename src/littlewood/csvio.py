"""Deterministic CSV emission with exact decimal rendering.

Interval endpoints are printed at 15 significant digits with directed
rounding (lower bounds down, upper bounds up) so the printed pair still
encloses the exact value.  Every file ends with a comment block recording
the full run configuration; nothing time- or path-dependent is written, so
identical configurations produce byte-identical files.

Cells are rendered from an integer numerator over a positive integer
denominator; no Fraction is built.  One exponent search scales the value
to ``sig`` digits, and its single ``divmod`` gives both directed roundings,
so :func:`format_ratio_bounds` renders an enclosing (lo, hi) pair of one
value from one search.  :func:`format_decimal` renders ints and Fractions
through the same core.

A row is written as its cells joined by commas unless a cell needs
quoting (it holds a comma, a double quote, a carriage return or a line
feed, or it is a row's only cell and empty); only such rows go through
the csv module's writer, so the text is the writer's own, byte for byte.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

__all__ = ["format_decimal", "format_ratio", "format_ratio_bounds", "render_csv", "write_csv"]

SIG_DIGITS = 15
# 10**k for the scale shifts of everyday values; larger k is computed
_POW10 = tuple(10**k for k in range(128))


def _check(den: int, sig: int, direction: int = 0) -> None:
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    if sig < 1:
        raise ValueError(f"sig must be >= 1, got {sig}")
    if direction not in (-1, 0, 1):
        raise ValueError(f"direction must be -1, 0 or 1, got {direction}")


def _scaled(a: int, den: int, sig: int) -> tuple[int, int, int, int]:
    """(q, r, d, e10) for a, den > 0 with 10**e10 <= a/den < 10**(e10+1)
    and q + r/d = (a/den) * 10**(sig-1-e10) in [10**(sig-1), 10**sig).

    The exponent is estimated from logarithms and checked on the quotient
    itself (both bounds are integers, so q alone decides them): a right
    estimate costs one divmod."""
    e10 = math.floor(math.log10(a) - math.log10(den))
    top = _POW10[sig] if sig < len(_POW10) else 10**sig
    while True:
        shift = sig - 1 - e10
        if shift >= 0:
            d = den
            q, r = divmod(a * (_POW10[shift] if shift < len(_POW10) else 10**shift), d)
        else:
            d = den * (_POW10[-shift] if -shift < len(_POW10) else 10**-shift)
            q, r = divmod(a, d)
        if q >= top:
            e10 += 1
        elif q * 10 < top:
            e10 -= 1
        else:
            return q, r, d, e10


def _render(mag: int, e10: int, sig: int, neg: bool) -> str:
    """The decimal text of sign * mag * 10**(e10 - sig + 1), with mag a
    rounded magnitude in [10**(sig-1), 10**sig]: positional for
    -4 <= e10 < sig, scientific otherwise."""
    digits = str(mag)
    if len(digits) > sig:  # rounded up to 10**sig: one digit fewer, one decade up
        digits = digits[:sig]
        e10 += 1
    sign = "-" if neg else ""
    if -4 <= e10 < sig:
        if e10 >= 0:
            point = e10 + 1
            frac = digits[point:].rstrip("0")
            return f"{sign}{digits[:point]}.{frac}" if frac else sign + digits[:point]
        # the leading digit is nonzero, so the fraction is too
        return f"{sign}0.{'0' * (-e10 - 1)}{digits.rstrip('0')}"
    tail = digits[1:].rstrip("0")
    return f"{sign}{digits[0]}.{tail}e{e10:+03d}" if tail else f"{sign}{digits[0]}e{e10:+03d}"


def format_ratio(num: int, den: int, sig: int = SIG_DIGITS, direction: int = 0) -> str:
    """Decimal rendering of num/den (den > 0) at ``sig`` significant digits.

    direction -1 rounds toward -inf, +1 toward +inf, 0 to nearest (half
    away from zero).  The result is parseable by float() and by Fraction().
    """
    _check(den, sig, direction)
    if num == 0:
        return "0"
    neg = num < 0
    q, r, d, e10 = _scaled(-num if neg else num, den, sig)
    # round the magnitude to nearest (ties away from zero), up when the
    # directed rounding points away from zero, down when it points toward it
    if direction == 0:
        q += 2 * r >= d
    elif (direction < 0) == neg:
        q += r != 0
    return _render(q, e10, sig, neg)


def format_ratio_bounds(num: int, den: int, sig: int = SIG_DIGITS) -> tuple[str, str]:
    """``(format_ratio(num, den, sig, -1), format_ratio(num, den, sig, 1))``
    from one exponent search: the magnitude rounds down to q and up to
    q + (r != 0), and a negative value swaps which end gets which."""
    _check(den, sig)
    if num == 0:
        return "0", "0"
    neg = num < 0
    q, r, _, e10 = _scaled(-num if neg else num, den, sig)
    down = _render(q, e10, sig, neg)
    if not r:
        return down, down
    up = _render(q + 1, e10, sig, neg)
    return (up, down) if neg else (down, up)


def format_decimal(x, sig: int = SIG_DIGITS, direction: int = 0) -> str:
    """:func:`format_ratio` of an int or a Fraction (anything else is
    converted with ``Fraction(x)`` first)."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return format_ratio(x.numerator, x.denominator, sig, direction)


def render_csv(
    header: Sequence[str],
    rows: Iterable[Sequence],
    metadata: Mapping[str, object] | Callable[[], Mapping[str, object]] | None = None,
) -> str:
    """CSV text (RFC-4180-style quoting) with a trailing comment block.

    ``rows`` may be a generator: it is consumed once, in order.  A callable
    ``metadata`` is called after the last row, so a streamed table can
    record counts that are known only once its rows have been produced.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    write = buf.write
    writer.writerow(list(header))
    for row in rows:
        line = ",".join(map(str, row))
        # rows the csv module may quote go through it: a comma inside a
        # cell adds to the comma count, and a lone empty cell joins to ""
        if line.count(",") == len(row) - 1 and line and not (
            '"' in line or "\n" in line or "\r" in line
        ):
            write(line + "\n")
        else:
            writer.writerow([str(cell) for cell in row])
    if callable(metadata):
        metadata = metadata()
    if metadata:
        for key in metadata:
            buf.write(f"# {key} = {metadata[key]}\n")
    return buf.getvalue()


def write_csv(
    path: str | None,
    header: Sequence[str],
    rows: Iterable[Sequence],
    metadata: Mapping[str, object] | Callable[[], Mapping[str, object]] | None = None,
) -> str:
    """Write (or return, when path is None) the rendered CSV."""
    text = render_csv(header, rows, metadata)
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text
