"""Exact univariate polynomials over the rationals.

Coefficients are `fractions.Fraction` stored in ascending degree order.
The text format used throughout the package is comma-separated rationals,
ascending degree, e.g. "-2,0,1" for x^2 - 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from . import modp


class ExactPolyError(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RationalPoly:
    """Dense univariate polynomial over Q, immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_text(text: str) -> "RationalPoly":
        parts = [p.strip() for p in text.split(",")]
        try:
            return RationalPoly([Fraction(p) for p in parts])
        except ZeroDivisionError as exc:
            raise ExactPolyError(f"zero denominator in {text!r}") from exc

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ExactPolyError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"RationalPoly({self.to_text()!r})"

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return RationalPoly([-c for c in self.coeffs])

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly([self[i] - other[i] for i in range(n)])

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return RationalPoly([])
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ExactPolyError("negative power")
        result = RationalPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "RationalPoly"):
        if other.is_zero():
            raise ExactPolyError("division by zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.lc
        if len(rem) - 1 < d:
            return RationalPoly([]), self
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - d] = q
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= q * oc
        return RationalPoly(quot), RationalPoly(rem)

    def __floordiv__(self, other):
        return self.divmod(_coerce(other))[0]

    def __mod__(self, other):
        return self.divmod(_coerce(other))[1]

    def monic(self) -> "RationalPoly":
        if self.is_zero():
            return self
        c = self.lc
        if c == 1:
            return self
        return RationalPoly([a / c for a in self.coeffs])

    def derivative(self) -> "RationalPoly":
        return RationalPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a) -> "RationalPoly":
        """f(x + a)."""
        return self.compose(RationalPoly([a, 1]))

    def compose(self, g: "RationalPoly") -> "RationalPoly":
        out = RationalPoly([])
        for c in reversed(self.coeffs):
            out = out * g + RationalPoly([c])
        return out

    # -- integer normalization -------------------------------------------

    def primitive_int(self):
        """Return (c, g) with self = c * g, g primitive with integer
        coefficients and positive leading coefficient."""
        if self.is_zero():
            return Fraction(0), self
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den), RationalPoly([i // g for i in ints])


def _coerce(x) -> RationalPoly:
    if isinstance(x, RationalPoly):
        return x
    return RationalPoly([x])


def gcd(f: RationalPoly, g: RationalPoly) -> RationalPoly:
    """Monic gcd over Q."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def resultant(f: RationalPoly, g: RationalPoly) -> Fraction:
    """Resultant of two nonzero polynomials, by the Euclidean PRS."""
    if f.is_zero() or g.is_zero():
        raise ExactPolyError("resultant of zero polynomial")
    if f.degree == 0:
        return f.lc ** g.degree
    if g.degree == 0:
        return g.lc ** f.degree
    r = Fraction(1)
    a, b = f, g
    while b.degree > 0:
        rem = a % b
        if rem.is_zero():
            return Fraction(0)
        r *= Fraction(-1) ** (a.degree * b.degree) * b.lc ** (a.degree - rem.degree)
        a, b = b, rem
    return r * b.lc ** a.degree


def discriminant(f: RationalPoly) -> Fraction:
    """disc f = (-1)^(n(n-1)/2) res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise ExactPolyError("discriminant needs degree >= 1")
    fp = f.derivative()
    if fp.is_zero():
        return Fraction(0)
    r = resultant(f, fp)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * r / f.lc


def proved_squarefree(f: RationalPoly) -> bool:
    """True if the primitive integer form of f stays squarefree of full
    degree modulo a prime (`modp.squarefree_mod_prime`), which proves f
    squarefree; False proves nothing."""
    return modp.squarefree_mod_prime([int(c) for c in f.primitive_int()[1].coeffs])


def is_squarefree(f: RationalPoly) -> bool:
    """Squarefree modulo a prime proves it; the exact gcd decides the rest."""
    if f.degree < 1:
        raise ExactPolyError("need degree >= 1")
    return proved_squarefree(f) or gcd(f, f.derivative()).degree == 0
