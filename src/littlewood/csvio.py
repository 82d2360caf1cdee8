"""Deterministic CSV emission with exact decimal rendering.

Interval endpoints are printed at 15 significant digits with directed
rounding (lower bounds down, upper bounds up) so the printed pair still
encloses the exact value.  Every file ends with a comment block recording
the full run configuration; nothing time- or path-dependent is written, so
identical configurations produce byte-identical files.

Cells are rendered from an integer numerator over a positive integer
denominator; no Fraction is built.  A :class:`RatioRenderer` serves a
column over one denominator (each cone-check column) and does the work
that depends on the denominator alone once.  One exponent search scales
the value to ``sig`` digits, and its single ``divmod`` gives both
directed roundings, so :meth:`RatioRenderer.bounds` renders an enclosing
(lo, hi) pair of one value from one search.

A row is written as its cells joined by commas unless a cell needs
quoting (it holds a comma, a double quote, a carriage return or a line
feed, or it is a row's only cell and empty); such a row is quoted cell by
cell, as RFC 4180 asks.
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

__all__ = ["RatioRenderer", "format_decimal", "format_ratio", "render_csv", "write_csv"]

SIG_DIGITS = 15
# 10**k for the scale shifts of everyday values; larger k is computed
_POW10 = tuple(10**k for k in range(128))


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


class RatioRenderer:
    """Decimal text of num/den for one denominator den > 0 at ``sig``
    significant digits, parseable by float() and by Fraction().  den and
    sig are checked once, and log10(den), for the exponent estimate, and
    the decade 10**(sig-1) <= q < 10**sig of a scaled quotient are kept
    for every cell."""

    __slots__ = ("den", "sig", "_log_den", "_low", "_top")

    def __init__(self, den: int, sig: int = SIG_DIGITS) -> None:
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if sig < 1:
            raise ValueError(f"sig must be >= 1, got {sig}")
        self.den = den
        self.sig = sig
        self._log_den = math.log10(den)
        self._low = 10 ** (sig - 1)
        self._top = 10 * self._low

    def _scaled(self, a: int) -> tuple[int, int, int, int]:
        """(q, r, d, e10) for a > 0 with 10**e10 <= a/den < 10**(e10+1)
        and q + r/d = (a/den) * 10**(sig-1-e10) in [10**(sig-1), 10**sig).

        The exponent is estimated from logarithms and checked on the
        quotient itself (both bounds are integers, so q alone decides
        them): a right estimate costs one divmod."""
        e10 = math.floor(math.log10(a) - self._log_den)
        while True:
            shift = self.sig - 1 - e10
            if shift >= 0:
                d = self.den
                q, r = divmod(a * (_POW10[shift] if shift < len(_POW10) else 10**shift), d)
            else:
                d = self.den * (_POW10[-shift] if -shift < len(_POW10) else 10**-shift)
                q, r = divmod(a, d)
            if q >= self._top:
                e10 += 1
            elif q < self._low:
                e10 -= 1
            else:
                return q, r, d, e10

    def render(self, num: int, direction: int = 0) -> str:
        """num/den rounded toward -inf (direction -1), toward +inf (+1) or
        to nearest, half away from zero (0)."""
        if direction not in (-1, 0, 1):
            raise ValueError(f"direction must be -1, 0 or 1, got {direction}")
        if num == 0:
            return "0"
        neg = num < 0
        q, r, d, e10 = self._scaled(-num if neg else num)
        # round the magnitude to nearest (ties away from zero), up when the
        # directed rounding points away from zero, down when it points toward it
        if direction == 0:
            q += 2 * r >= d
        elif (direction < 0) == neg:
            q += r != 0
        return _render(q, e10, self.sig, neg)

    def bounds(self, num: int) -> tuple[str, str]:
        """``(render(num, -1), render(num, 1))`` from one exponent search:
        the magnitude rounds down to q and up to q + (r != 0), and a
        negative value swaps which end gets which."""
        if num == 0:
            return "0", "0"
        neg = num < 0
        q, r, _, e10 = self._scaled(-num if neg else num)
        down = _render(q, e10, self.sig, neg)
        if not r:
            return down, down
        up = _render(q + 1, e10, self.sig, neg)
        return (up, down) if neg else (down, up)


def format_ratio(num: int, den: int, sig: int = SIG_DIGITS, direction: int = 0) -> str:
    """``RatioRenderer(den, sig).render(num, direction)``."""
    return RatioRenderer(den, sig).render(num, direction)


def format_decimal(x, sig: int = SIG_DIGITS, direction: int = 0) -> str:
    """:func:`format_ratio` of an int or a Fraction (anything else is
    converted with ``Fraction(x)`` first)."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return format_ratio(x.numerator, x.denominator, sig, direction)


def _quoted_line(cells: Sequence[str]) -> str:
    """A row as RFC 4180 asks: a cell holding a comma, a double quote, a
    carriage return or a line feed is quoted, its quotes doubled, and a
    lone empty cell is written as "" so that it is not read as no cell."""
    if len(cells) == 1 and not cells[0]:
        return '""'
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\r\n') else cell
        for cell in cells
    )


def render_csv(
    header: Sequence[str],
    rows: Iterable[Sequence],
    metadata: Mapping[str, object] | Callable[[], Mapping[str, object]] | None = None,
) -> str:
    """CSV text (RFC 4180 quoting, LF line ends) with a trailing comment
    block.

    ``rows`` may be a generator: it is consumed once, in order.  A callable
    ``metadata`` is called after the last row, so a streamed table can
    record counts that are known only once its rows have been produced.
    """
    buf = io.StringIO()
    write = buf.write
    write(_quoted_line([str(cell) for cell in header]) + "\n")
    for row in rows:
        line = ",".join(map(str, row))
        # a row that may need quoting is quoted cell by cell: a comma inside
        # a cell adds to the comma count, and a lone empty cell joins to ""
        if line.count(",") != len(row) - 1 or not line or (
            '"' in line or "\n" in line or "\r" in line
        ):
            line = _quoted_line([str(cell) for cell in row])
        write(line + "\n")
    if callable(metadata):
        metadata = metadata()
    if metadata:
        for key in metadata:
            write(f"# {key} = {metadata[key]}\n")
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
