"""Number-spec grammar shared by the library and the CLI.

    sqrt:<d>                   square root of a nonnegative integer
    quad:<a>,<b>,<c>,<d>       (a + b*sqrt(d)) / c
    cf:[a0;a1,...(p1,p2,...)]  explicit continued fraction; the
                               parenthesised block repeats forever and may
                               be omitted for a finite (rational) CF
    rat:<p>/<q>                rational (the /<q> part optional)

Decimals elsewhere in the CLI (epsilon and friends) parse as exact
rationals; nothing ever round-trips through binary floating point.

The parser writes nothing itself: a radicand it reduces to its squarefree
part is reported, as one line of text, to the `note` callable a caller
passes (the CLI prints it to stderr).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .cfrac import CFSpec, convergents
from .exactnum import SurdSum, squarefree_decompose

__all__ = ["NumberSpecError", "parse_number_spec", "parse_exact_fraction"]


class NumberSpecError(ValueError):
    """Malformed number spec; carries the offending position."""

    def __init__(self, text: str, position: int, message: str):
        self.position = position
        super().__init__(f"{message} (at position {position} in {text!r})")


def _int_at(text: str, token: str, offset: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise NumberSpecError(text, offset, f"expected an integer, got {token!r}")


def _squarefree_at(text: str, d: int, offset: int) -> tuple[int, int]:
    try:
        return squarefree_decompose(d)
    except ValueError:
        raise NumberSpecError(
            text, offset, f"cannot certify the squarefree part of radicand {d}"
        ) from None


def _root_term(square: int, free: int, coeff: Fraction) -> SurdSum:
    """coeff * sqrt(square**2 * free) from the decomposition already made,
    so the radicand is factored once per spec."""
    coeff *= square
    return SurdSum._reduce({free: coeff.numerator} if free and coeff else {}, coeff.denominator)


def parse_number_spec(
    text: str, frac: bool = False, note: Callable[[str], object] | None = None
) -> CFSpec:
    """Parse the grammar above into a CF spec; `frac` maps the value to its
    fractional part (the unit-interval normalization alpha - floor(alpha)),
    and `note`, when given, receives each normalization note."""
    head, sep, body = text.partition(":")
    if not sep:
        raise NumberSpecError(text, 0, "expected '<kind>:<payload>'")
    offset = len(head) + 1
    if head == "sqrt":
        d = _int_at(text, body, offset)
        if d < 0:
            raise NumberSpecError(text, offset, "radicand must be nonnegative")
        square, free = _squarefree_at(text, d, offset)
        if note and square != 1 and free > 1:
            note(f"sqrt:{d} normalized to {square}*sqrt({free})")
        spec = CFSpec.from_surd(_root_term(square, free, Fraction(1)))
    elif head == "quad":
        parts = body.split(",")
        if len(parts) != 4:
            raise NumberSpecError(text, offset, "quad needs a,b,c,d")
        a, b, c, d = (_int_at(text, p, offset) for p in parts)
        if c == 0:
            raise NumberSpecError(text, offset, "denominator c must be nonzero")
        if d < 0:
            raise NumberSpecError(text, offset, "radicand d must be nonnegative")
        square, free = _squarefree_at(text, d, offset)
        if note and free != d:
            note(f"quad radicand {d} normalized to squarefree {free}")
        spec = CFSpec.from_surd(_root_term(square, free, Fraction(b, c)) + Fraction(a, c))
    elif head == "cf":
        spec = _parse_cf(text, body, offset)
    elif head == "rat":
        num, slash, den = body.partition("/")
        p = _int_at(text, num, offset)
        q = _int_at(text, den, offset + len(num) + 1) if slash else 1
        if q == 0:
            raise NumberSpecError(text, offset, "zero denominator")
        spec = CFSpec.from_surd(Fraction(p, q))
    else:
        raise NumberSpecError(text, 0, f"unknown kind {head!r}")
    if frac:
        spec = _fractional_part(spec)
    return spec


def _parse_cf(text: str, body: str, offset: int) -> CFSpec:
    if not (body.startswith("[") and body.endswith("]")):
        raise NumberSpecError(text, offset, "cf payload must be bracketed")
    inner = body[1:-1]
    a0_str, sep, rest = inner.partition(";")
    a0 = _int_at(text, a0_str.strip(), offset + 1)
    if a0 < 0:
        raise NumberSpecError(text, offset + 1, "a0 must be >= 0")
    if not sep or not rest.strip():
        return CFSpec.from_surd(a0)
    rest = rest.strip()
    period: tuple[int, ...] = ()
    if "(" in rest:
        pre_str, _, per_part = rest.partition("(")
        if not per_part.endswith(")"):
            raise NumberSpecError(
                text, offset + body.find("("), "unclosed period parenthesis"
            )
        per_str = per_part[:-1]
        period = tuple(
            _int_at(text, tok.strip(), offset) for tok in per_str.split(",") if tok.strip()
        )
        if not period:
            raise NumberSpecError(text, offset, "empty period")
        pre_str = pre_str.rstrip(",")
    else:
        pre_str = rest
    pre = tuple(
        _int_at(text, tok.strip(), offset) for tok in pre_str.split(",") if tok.strip()
    )
    if any(a < 1 for a in pre + period):
        raise NumberSpecError(text, offset, "partial quotients a_j must be >= 1 for j >= 1")
    if period:
        return CFSpec.from_periodic((a0,) + pre, period)
    return CFSpec.from_surd(convergents([a0, *pre])[-1].as_fraction())


def _fractional_part(spec: CFSpec) -> CFSpec:
    if spec.surd is None:
        return CFSpec.from_periodic((0,) + spec.preperiod[1:], spec.period)
    return CFSpec.from_surd(spec.surd - spec.surd.floor())


def parse_exact_fraction(text: str) -> Fraction:
    """Exact rational from '1/1000', '0.001', '1e-3' or '3' style input."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise NumberSpecError(text, 0, f"not an exact rational: {exc}")
