"""Q(i) scalars as a pair of Fractions, kept as a test oracle.

Each part is a reduced `fractions.Fraction`, so every operation is the
textbook formula on real and imaginary parts.  `bicomplex.Scalar`, which
stores (a + b i)/d as three ints, must agree with it on every operation,
on `re` and `im`, and on the literal it formats and parses.
"""

from __future__ import annotations

import re as _regex
from dataclasses import dataclass
from fractions import Fraction

_RAT = r"-?[0-9]+(?:/[0-9]+)?"
_RE_REAL = _regex.compile(rf"^({_RAT})$")
_RE_IMAG = _regex.compile(r"^(-?)([0-9]+(?:/[0-9]+)?)?i$")
_RE_FULL = _regex.compile(rf"^({_RAT})([+-])([0-9]+(?:/[0-9]+)?)?i$")


@dataclass(frozen=True, slots=True)
class PairScalar:
    """An element of Q(i), stored as reduced real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other: PairScalar) -> PairScalar:
        return PairScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: PairScalar) -> PairScalar:
        return PairScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> PairScalar:
        return PairScalar(-self.re, -self.im)

    def __mul__(self, other: PairScalar) -> PairScalar:
        a, b, c, d = self.re, self.im, other.re, other.im
        return PairScalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: PairScalar) -> PairScalar:
        return self * other.inverse()

    def inverse(self) -> PairScalar:
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        n = self.re * self.re + self.im * self.im
        return PairScalar(self.re / n, -self.im / n)

    def conjugate(self) -> PairScalar:
        return PairScalar(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


def parse_pair(text: str) -> PairScalar:
    """Parse a scalar literal.  Raises ValueError on malformed input."""
    t = text.strip().replace(" ", "")
    m = _RE_REAL.match(t)
    if m:
        return PairScalar(Fraction(m.group(1)), Fraction(0))
    m = _RE_IMAG.match(t)
    if m:
        mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            mag = -mag
        return PairScalar(Fraction(0), mag)
    m = _RE_FULL.match(t)
    if m:
        re_ = Fraction(m.group(1))
        mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
        if m.group(2) == "-":
            mag = -mag
        return PairScalar(re_, mag)
    raise ValueError(f"malformed scalar literal: {text!r}")
