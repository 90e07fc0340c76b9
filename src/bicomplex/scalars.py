"""Exact Gaussian-rational scalars.

The whole engine computes over Q(i): complex numbers whose real and
imaginary parts are rational.  Every operation is exact; there is no
floating point anywhere downstream of this module.

A `Scalar` stores (a + b i)/d as three Python ints in canonical form:
d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1) and `==` and `hash`
compare the triples.  `Scalar(a, b, d)` is the one normalizer; `sc`,
`parse_scalar` and every operation whose result may not be canonical go
through it.  The fast paths skip it where the result is canonical by
construction: add, subtract and multiply of two values with d = 1 stay
on ints with no gcd, and negation and conjugation keep d.  `re` and `im`
are read-only `Fraction` views for formatting and sorting.
"""

from __future__ import annotations

import re as _regex
from fractions import Fraction
from math import gcd

_RAT = r"-?[0-9]+(?:/[0-9]+)?"  # ASCII digits only, unlike \d
_RE_REAL = _regex.compile(rf"^({_RAT})$")
_RE_IMAG = _regex.compile(r"^(-?)([0-9]+(?:/[0-9]+)?)?i$")
_RE_FULL = _regex.compile(rf"^({_RAT})([+-])([0-9]+(?:/[0-9]+)?)?i$")


class Scalar:
    """An element (a + b i)/d of Q(i); build it with `sc` or `parse_scalar`.

    The constructor takes any ints with d != 0 and normalizes them.
    Instances are immutable by convention: nothing assigns a, b or d
    after construction.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1) -> None:
        if not d:
            raise ZeroDivisionError("scalar with zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        self.a, self.b, self.d = a, b, d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: Scalar) -> Scalar:
        d, e = self.d, other.d
        if d == 1 == e:
            return _raw(self.a + other.a, self.b + other.b, 1)
        return Scalar(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: Scalar) -> Scalar:
        d, e = self.d, other.d
        if d == 1 == e:
            return _raw(self.a - other.a, self.b - other.b, 1)
        return Scalar(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> Scalar:
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other: Scalar) -> Scalar:
        a, b, d = self.a, self.b, self.d
        c, f, e = other.a, other.b, other.d
        a, b = a * c - b * f, a * f + b * c
        if d == 1 == e:
            return _raw(a, b, 1)
        return Scalar(a, b, d * e)

    def __truediv__(self, other: Scalar) -> Scalar:
        return self * other.inverse()

    def inverse(self) -> Scalar:
        a, b, d = self.a, self.b, self.d
        if not (a or b):
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(d * a, -d * b, a * a + b * b)

    def conjugate(self) -> Scalar:
        return _raw(self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scalar({format_scalar(self)!r})"


_new = object.__new__


def _raw(a: int, b: int, d: int) -> Scalar:
    """A Scalar from a triple that is canonical already."""
    s = _new(Scalar)
    s.a, s.b, s.d = a, b, d
    return s


def _ratio(x: object) -> tuple[int, int]:
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)  # type: ignore[arg-type]
    return x.as_integer_ratio()


def sc(re: object, im: object = 0) -> Scalar:
    """Build a Scalar from ints, Fractions or strings like '1/2'."""
    (a, d), (b, e) = _ratio(re), _ratio(im)
    return Scalar(a * e, b * d, d * e)


ZERO = sc(0)
ONE = sc(1)
MINUS_ONE = sc(-1)
I = sc(0, 1)


def _format_rat(f: Fraction) -> str:
    return str(f)


def format_scalar(s: Scalar) -> str:
    """Canonical literal: `rat`, `rat i`, `rat + rat i`, `rat - rat i`.

    Examples: ``3/2``, ``-i``, ``2-1/3i``.  The output is whitespace-free
    so it can be used as a single token in the file formats, and parses
    back to the identical scalar.
    """
    re_, im_ = s.re, s.im
    if not im_:
        return _format_rat(re_)
    if im_ == 1:
        imag = "i"
    elif im_ == -1:
        imag = "-i"
    else:
        imag = f"{_format_rat(im_)}i"
    if not re_:
        return imag
    if im_ > 0:
        return f"{_format_rat(re_)}+{imag}"
    # imag already starts with '-'
    return f"{_format_rat(re_)}{imag}"


def _parse_rat(text: str | None, negate: bool = False) -> tuple[int, int]:
    """`n` or `n/m` as (n, m); an absent magnitude is 1."""
    num, _, den = (text or "1").partition("/")
    n = int(num)
    return (-n if negate else n), (int(den) if den else 1)


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal.  Raises ValueError on malformed input."""
    t = text.strip().replace(" ", "")
    if m := _RE_REAL.match(t):
        (a, d), (b, e) = _parse_rat(m.group(1)), (0, 1)
    elif m := _RE_IMAG.match(t):
        (a, d), (b, e) = (0, 1), _parse_rat(m.group(2), m.group(1) == "-")
    elif m := _RE_FULL.match(t):
        (a, d), (b, e) = _parse_rat(m.group(1)), _parse_rat(m.group(3), m.group(2) == "-")
    else:
        raise ValueError(f"malformed scalar literal: {text!r}")
    return Scalar(a * e, b * d, d * e)
