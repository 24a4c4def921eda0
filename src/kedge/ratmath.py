"""Exact rational arithmetic: the ``Rat`` type, parsing and formatting.

Every number in the engine is an arbitrary-precision rational; floating
point is never used in core computations.  ``Rat`` is
``fractions.Fraction``.  The two routes to S run on Python ``int``s
inside, over the angles' common denominator (``picard.Angles.scaled``),
and ``Rat`` is formed at their edges: parsed inputs, reports and outputs.

Serialized form is always the string ``"p/q"`` in lowest terms (e.g.
``"21/23"``, ``"-1/21"``, ``"3/1"``); parsing accepts ASCII ``"p/q"`` and
bare integers, and -- only when explicitly requested -- decimal literals,
which are converted exactly (base-10), never through binary floats.
``exact`` is the one reader of a rational that a library caller passes.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction as Rat

#: The rational type's name, which the benchmark records with every run.
RAT_BACKEND = "fraction"

#: Rational zero, shared to avoid repeated construction.
ZERO = Rat(0)


def sign(x) -> int:
    """Exact sign: -1, 0 or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class RatParseError(ValueError):
    """Input string is not an accepted exact rational literal."""


#: Input bounds: digits in one literal, and |exponent| of a decimal.  They
#: keep every derived rational far below Python's int-to-str digit limit.
MAX_LITERAL_DIGITS = MAX_DECIMAL_EXPONENT = 100


# ASCII digits only, one sign per side: int() and Fraction() would also take
# "1_0", blanks after a sign or a slash, and non-ASCII digits.
_INTEGER = "[+-]?[0-9]+"
_RATIONAL = re.compile(f"{_INTEGER}(?:/{_INTEGER})?")
_DECIMAL = re.compile(rf"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE]({_INTEGER}))?")


def parse_rat(text: str, accept_decimal: bool = False):
    """Parse ``"p/q"`` or an integer literal into a Rat.

    Decimal literals such as ``"0.5"`` are rejected unless
    ``accept_decimal`` is set, in which case they are converted exactly
    in base 10 (``"0.1"`` becomes 1/10, not a binary float).  Surrounding
    whitespace is ignored.
    """
    s = text.strip()
    if not s:
        raise RatParseError("empty rational literal")
    rational = _RATIONAL.fullmatch(s)
    decimal = None if rational else _DECIMAL.fullmatch(s)
    if not (rational or decimal):
        raise RatParseError(f"malformed rational {text!r}: expected 'p/q'")
    exponent = decimal[1] if decimal else None
    if sum(ch.isdigit() for ch in s) > MAX_LITERAL_DIGITS or (
        exponent and abs(int(exponent)) > MAX_DECIMAL_EXPONENT
    ):
        raise RatParseError(
            f"literal too large: at most {MAX_LITERAL_DIGITS} digits and a decimal "
            f"exponent of at most {MAX_DECIMAL_EXPONENT} in absolute value are accepted"
        )
    if decimal:
        if not accept_decimal:
            raise RatParseError(
                f"{text!r} looks like a decimal; pass an exact rational 'p/q' "
                "or enable the lossy decimal flag"
            )
        return Rat(s)
    num, _, den = s.partition("/")
    den = int(den or 1)
    if den == 0:
        raise RatParseError(f"zero denominator in {text!r}")
    return Rat(int(num), den)


def exact(value, what: str):
    """Read a rational passed by a library caller: an ``int`` (not a
    ``bool``), a ``Fraction`` (kept as it is) or a ``str``, which
    ``parse_rat`` reads with decimals accepted, by its grammar and bounds.
    A ``float`` is refused (ValueError): it holds a binary value (0.1 is
    3602879701896397/2**55).  Any other type is refused (TypeError); a
    ``Decimal`` is passed as its text.  ``what`` leads each message."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, str):
        return parse_rat(value, accept_decimal=True)
    if type(value) is int:
        return Rat(value)
    if isinstance(value, float):
        raise ValueError(f'{what} {value!r} is a binary float; pass it exactly, as "p/q"')
    raise TypeError(f"{what} {value!r} is not an int, a Fraction or a str")


def format_rat(x) -> str:
    """Canonical ``"p/q"`` form in lowest terms, denominator positive."""
    return f"{x.numerator}/{x.denominator}"


def isqrt_exact(k: int) -> int | None:
    """Integer square root of ``k`` if ``k`` is a perfect square, else None."""
    if k < 0:
        return None
    r = math.isqrt(k)
    return r if r * r == k else None
