"""Deterministic CSV emission with exact decimal rendering.

Interval endpoints are printed at 15 significant digits with directed
rounding (lower bounds down, upper bounds up) so the printed pair still
encloses the exact value.  Every file ends with a comment block recording
the full run configuration; nothing time- or path-dependent is written, so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

__all__ = ["format_decimal", "render_csv", "write_csv"]

SIG_DIGITS = 15


def _below_pow10(a: int, d: int, k: int) -> bool:
    """a/d < 10**k for a, d > 0, by one integer comparison."""
    return a < d * 10**k if k >= 0 else a * 10**-k < d


def format_decimal(x, sig: int = SIG_DIGITS, direction: int = 0) -> str:
    """Decimal rendering of an exact rational at `sig` significant digits.

    direction -1 rounds toward -inf, +1 toward +inf, 0 to nearest (half
    away from zero).  The result is parseable by float() and by Fraction().
    """
    if isinstance(x, int):
        num, den = x, 1
    else:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        num, den = x.numerator, x.denominator
    if num == 0:
        return "0"
    neg = num < 0
    a = -num if neg else num
    # 10**e10 <= a/den < 10**(e10+1): start from the binary exponent times
    # log10(2) ~ 1233/4096 (off by at most a little) and correct exactly
    e10 = ((a.bit_length() - den.bit_length()) * 1233) >> 12
    while not _below_pow10(a, den, e10 + 1):
        e10 += 1
    while _below_pow10(a, den, e10):
        e10 -= 1
    shift = sig - 1 - e10
    if shift >= 0:
        a *= 10**shift
    else:
        den *= 10**-shift
    # |x| * 10**shift = a/den lies in [10**(sig-1), 10**sig); round its
    # magnitude to nearest (ties away from zero), up when the directed
    # rounding points away from zero, down when it points toward zero
    if direction == 0:
        mag = (2 * a + den) // (2 * den)
    elif (direction < 0) == neg:
        mag = -(-a // den)
    else:
        mag = a // den
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
    writer.writerow(list(header))
    for row in rows:
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
