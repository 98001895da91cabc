"""Square classes of Q and elements x + y sqrt(d) of the quadratic algebras
Q[sqrt(d)]: the currency shared by the etale, Kummer-codec and local-symbol
layers, with the errors those layers raise for them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import UnsupportedSize


class EtaleError(ValueError):
    pass


class KummerError(ValueError):
    pass


TRIAL_BOUND = 2 ** 20


def squarefree_part(q) -> int:
    """The squarefree integer representing the square class of a nonzero
    rational.  Trial division stops at B = TRIAL_BOUND: the cofactor left
    then has no prime factor below B, so below B^3 it is 1, a prime, p*q or
    p^2, and `math.isqrt` tells p^2 apart.  A larger cofactor raises
    UnsupportedSize."""
    q = Fraction(q)
    if q == 0:
        raise EtaleError("zero has no square class")
    n = q.numerator * q.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        if d >= TRIAL_BOUND:
            if n >= TRIAL_BOUND ** 3:
                raise UnsupportedSize(
                    f"square class needs a factor of {n.bit_length()} bits "
                    f"past trial division to {TRIAL_BOUND}")
            r = math.isqrt(n)
            return sign * out * (1 if r * r == n else n)
        odd = False
        while n % d == 0:
            n //= d
            odd = not odd
        if odd:
            out *= d
        d += 1 if d == 2 else 2
    return sign * out * n


def _frac_sqrt(q):
    """The exact square root of a nonnegative rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def quadratic_class(f) -> int:
    """The squarefree m with Q[x]/(f) = Q(sqrt(m)) for a quadratic f with
    coefficients f[0], f[1], f[2]: the class of its discriminant."""
    return squarefree_part(f[1] * f[1] - 4 * f[0] * f[2])


@dataclass(frozen=True)
class SquareClass:
    rep: int

    def __post_init__(self):
        if squarefree_part(self.rep) != self.rep:
            raise EtaleError(f"{self.rep} is not squarefree")

    @staticmethod
    def of(q) -> "SquareClass":
        """The class of a nonzero rational; its squarefree part is the
        representative, so it is not checked again."""
        c = object.__new__(SquareClass)
        object.__setattr__(c, "rep", squarefree_part(q))
        return c

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass.of(self.rep * other.rep)

    def is_trivial(self) -> bool:
        return self.rep == 1


@dataclass(frozen=True)
class QuadElem:
    """x + y*sqrt(d) in Q[sqrt(d)] with d the squarefree representative of
    the relevant twist class (d = 1 means the split algebra Q x Q via the
    components x + y and x - y)."""

    base_class: SquareClass
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    @property
    def d(self) -> int:
        return self.base_class.rep

    @staticmethod
    def of(d, x, y=0) -> "QuadElem":
        return QuadElem(SquareClass.of(d), x, y)

    def _check(self, other: "QuadElem"):
        if self.base_class != other.base_class:
            raise KummerError("mismatched quadratic algebras")

    def __add__(self, other):
        self._check(other)
        return QuadElem(self.base_class, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        self._check(other)
        return QuadElem(self.base_class, self.x - other.x, self.y - other.y)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.base_class, self.x * other, self.y * other)
        self._check(other)
        return QuadElem(self.base_class,
                        self.x * other.x + self.d * self.y * other.y,
                        self.x * other.y + self.y * other.x)

    __rmul__ = __mul__

    def conj(self) -> "QuadElem":
        return QuadElem(self.base_class, self.x, -self.y)

    def norm(self) -> Fraction:
        return self.x * self.x - self.d * self.y * self.y

    def trace(self) -> Fraction:
        return 2 * self.x

    def inv(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise KummerError("element not invertible (zero norm)")
        return QuadElem(self.base_class, self.x / n, -self.y / n)

    def __pow__(self, k: int):
        out = QuadElem(self.base_class, 1, 0)
        base = self if k >= 0 else self.inv()
        for _ in range(abs(k)):
            out = out * base
        return out

    def is_rational(self) -> bool:
        return self.y == 0

    def __repr__(self):
        return f"QuadElem(d={self.d}, {self.x}, {self.y})"
