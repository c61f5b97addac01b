"""Exact number handling for payoffs and coordinates.

Payoffs are ordinal: the only thing the solver ever does with them is
compare, and ties must be detected exactly. Coordinates feed a sign test
(the spacetime interval) that must not flip near the light cone. Both are
therefore kept as :class:`fractions.Fraction` end to end; binary floats
are rejected at the boundary instead of being silently rounded.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

# A decimal with an exponent, matched loosely: only its size is read here.
_EXPONENT_FORM = re.compile(r"\s*[-+]?(?P<int>[\d_]*)(?:\.(?P<dec>[\d_]*))?[eE](?P<exp>[-+]?[\d_]+)\s*")


def _echo(text: str) -> str:
    """``repr(text)`` for an error message, cut to 40 characters and the length past that."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _digit_limit() -> int:
    """The int-to-text digit limit; 0 (none) before Python 3.10.7 added it."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(n: int, limit: int) -> bool:
    """Whether ``n >= 0`` has more than ``limit`` digits; 2**3 < 10 keeps the bit test exact."""
    return limit > 0 and n.bit_length() > 3 * limit and n >= 10**limit


def _fraction(text: str, limit: int) -> Fraction | None:
    """``Fraction(text)``, or None if a decimal exponent puts it past ``limit`` digits.

    Fraction expands the exponent into a power of ten, which takes seconds
    for "1e10000000". Beyond ``limit`` plus the mantissa's digits, the
    numerator or the reduced denominator has more than ``limit`` digits.
    """
    match = _EXPONENT_FORM.fullmatch(text)
    if match and limit:
        digits = (match["int"] + (match["dec"] or "")).replace("_", "").lstrip("0")
        if not digits:  # zero, whatever the exponent
            return Fraction(text[: match.start("exp")] + "0" + text[match.end("exp") :])
        if abs(int(match["exp"]) - len((match["dec"] or "").replace("_", ""))) > limit + len(digits):
            return None
    return Fraction(text)


def parse_exact(value: object, where: str = "number") -> Fraction:
    """Convert a JSON-decoded value into an exact rational.

    Accepts ints and strings ("3", "-1.5", "2/7", "1e-3"). Floats are
    rejected: a JSON literal like 0.1 has no exact decimal meaning once
    decoded. So is a string whose numerator or denominator has more digits
    than ``sys.get_int_max_str_digits()`` lets it convert back to text.
    """
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected an integer or decimal string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = _digit_limit()
        try:
            number = _fraction(value, limit)
        except (ValueError, ZeroDivisionError) as exc:
            # int() refuses a run of digits past the limit before reading the rest.
            if not limit or not re.search(rf"\d{{{limit + 1}}}", value.replace("_", "")):
                raise ValueError(f"{where}: {_echo(value)} is not a valid exact number") from exc
            number = None
        if number is None or _too_long(abs(number.numerator), limit) or _too_long(number.denominator, limit):
            raise ValueError(f"{where}: {_echo(value)} has more than {limit} digits in its numerator or denominator")
        return number
    if isinstance(value, float):
        raise ValueError(
            f"{where}: floating-point literal {value!r} not allowed; "
            "use an integer or a decimal string"
        )
    raise ValueError(f"{where}: expected an integer or decimal string, got {type(value).__name__}")


def format_exact(value: Fraction) -> int | str:
    """Render a Fraction for JSON so that parse_exact round-trips it.

    Integers come back as JSON ints; rationals with a terminating decimal
    expansion as decimal strings, unless the expansion has more digits than
    int-to-text conversion allows; everything else as "p/q".
    """
    if value.denominator == 1:
        return int(value)
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = value.numerator * 10**digits // value.denominator
        if _too_long(abs(scaled), _digit_limit()):
            return f"{value.numerator}/{value.denominator}"
        sign = "-" if scaled < 0 else ""
        text = str(abs(scaled)).rjust(digits + 1, "0")
        return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return f"{value.numerator}/{value.denominator}"
