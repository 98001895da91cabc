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
        """f(x + a), by the Taylor shift: n rounds of synthetic division
        by x - a on the coefficient list."""
        a, c = _frac(a), list(self.coeffs)
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += a * c[j + 1]
        return RationalPoly(c)

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
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
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
    """Resultant of two nonzero polynomials.  With f = a F and g = b G for
    primitive integer F and G, res(f, g) = a^(deg g) b^(deg f) res(F, G),
    and res(F, G) comes from the subresultant PRS in Python ints."""
    if f.is_zero() or g.is_zero():
        raise ExactPolyError("resultant of zero polynomial")
    if f.degree == 0:
        return f.lc ** g.degree
    if g.degree == 0:
        return g.lc ** f.degree
    a, F = f.primitive_int()
    b, G = g.primitive_int()
    return a ** g.degree * b ** f.degree * _int_resultant(
        [c.numerator for c in F.coeffs], [c.numerator for c in G.coeffs])


def _int_resultant(A, B) -> int:
    """Resultant of primitive integer polynomials of degree >= 1, ascending
    coefficient lists, by the subresultant PRS (H. Cohen, "A Course in
    Computational Algebraic Number Theory", Algorithm 3.3.7): every division
    is exact, so the coefficients stay integers of subresultant size."""
    s = 1
    if len(A) < len(B):
        A, B = B, A
        if (len(A) - 1) * (len(B) - 1) % 2:
            s = -1
    g = h = 1
    while len(B) > 1:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da * db % 2:
            s = -s
        R = _pseudo_remainder(A, B)
        if not R:
            return 0
        A, B = B, [c // (g * h ** delta) for c in R]
        g = A[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
    da = len(A) - 1
    return s * B[-1] ** da // h ** (da - 1)


def _pseudo_remainder(A, B):
    """lc(B)^(deg A - deg B + 1) A mod B for integer polynomials, ascending
    coefficient lists with deg A >= deg B."""
    r, db, lb = list(A), len(B) - 1, B[-1]
    for i in range(len(A) - 1, db - 1, -1):
        c = r.pop()
        r = [x * lb for x in r]
        for j in range(db):
            r[i - db + j] -= c * B[j]
    return modp.trim(r)


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
