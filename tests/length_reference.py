"""Frozen reference for `graphs.parse_length`.

This is `parse_length` as it was when every literal went through
`Fraction(text)`.  The differential test compares the library against it:
the same value, or the same exception type and message.  Do not update it
to follow the library.
"""

import re
from fractions import Fraction

from mlsgraph.graphs import MAX_LENGTH_DIGITS, GraphError

_DIGIT_BOUND = 10 ** MAX_LENGTH_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def reference_parse_length(text):
    try:
        exp = _EXPONENT.search(text)
        if exp and abs(int(exp[1])) > MAX_LENGTH_DIGITS + len(text):
            value = Fraction(text[:exp.start(1)] + "0")
            too_long = value != 0
        else:
            value = Fraction(text)
            too_long = max(abs(value.numerator), value.denominator) >= _DIGIT_BOUND
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphError(f"bad length literal {text!r}") from exc
    if too_long:
        raise GraphError(f"length literal {text!r} has more than "
                         f"{MAX_LENGTH_DIGITS} digits in its numerator or denominator")
    return value
