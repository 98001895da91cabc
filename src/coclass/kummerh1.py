"""Kummer-data codecs for first cohomology with coefficients in the small
modules C3, C2 x C2, and C4: explicit bijections between exact Kummer data
and coclass-bearing etale algebras, with their group laws.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import InternalError
from .etalealg import (
    EtaleAlgebra,
    SquareClass,
    UnsupportedStructure,
    _frac_sqrt,
    cubic_resolvent_poly,
    depress_quartic,
    quadratic_resolvent,
    squarefree_part,
)
from .exactpoly import RationalPoly, charpoly, factor_rationals, gcd, is_squarefree


class KummerError(ValueError):
    pass


def _frac(x) -> Fraction:
    return Fraction(x)


# ---------------------------------------------------------------------------
# quadratic-algebra elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadElem:
    """x + y*sqrt(d) in Q[sqrt(d)] with d the squarefree representative of
    the relevant twist class (d = 1 means the split algebra Q x Q via the
    components x + y and x - y)."""

    base_class: SquareClass
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _frac(self.x))
        object.__setattr__(self, "y", _frac(self.y))

    @property
    def d(self) -> int:
        return self.base_class.rep

    @staticmethod
    def of(d, x, y=0) -> "QuadElem":
        return QuadElem(SquareClass.of(d) if d != 0 else SquareClass(1),
                        _frac(x), _frac(y))

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


# ---------------------------------------------------------------------------
# coclass data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoclassC3:
    """H^1 datum for the order-3 module twisted by D: a norm-one element of
    T' = Q[sqrt(-3D)] representing a cube class."""

    D: SquareClass
    delta: QuadElem

    def __post_init__(self):
        if isinstance(self.D, int):
            object.__setattr__(self, "D", SquareClass.of(self.D))
        want = squarefree_part(-3 * self.D.rep)
        if self.delta.d != want:
            raise KummerError(
                f"delta must live over sqrt({want}), not sqrt({self.delta.d})")
        if self.delta.norm() != 1:
            raise KummerError("delta must have norm 1")


@dataclass(frozen=True)
class CoclassV4:
    """H^1 datum for C2 x C2 twisted by the cubic resolvent algebra R: a
    norm-one element of R, one coordinate (reduced polynomial) per factor,
    representing a square class."""

    R: EtaleAlgebra
    delta: tuple

    def __post_init__(self):
        if self.R.degree != 3:
            raise KummerError("R must have degree 3")
        coords = tuple(
            (d if isinstance(d, RationalPoly) else RationalPoly([_frac(d)]))
            % f
            for d, f in zip(self.delta, self.R.factors))
        if len(coords) != len(self.R.factors):
            raise KummerError("delta needs one coordinate per factor of R")
        object.__setattr__(self, "delta", coords)
        if self.norm() != 1:
            raise KummerError("delta must have norm 1")

    @cached_property
    def _charpoly(self) -> RationalPoly:
        """Characteristic polynomial of multiplication by delta on R, a
        cubic; the norm check and the V4 quartic both read it."""
        char = RationalPoly([Fraction(1)])
        for d, f in zip(self.delta, self.R.factors):
            char = char * charpoly(d, f)
        return char

    def norm(self) -> Fraction:
        """(-1)^3 times the constant term of the cubic charpoly of delta."""
        return -self._charpoly[0]


@dataclass(frozen=True)
class CoclassC4:
    """H^1 datum for the order-4 module twisted by D: a pair (alpha, c)
    with alpha in Q[sqrt(-D)] of norm c^4, modulo (beta^4, N(beta))."""

    D: SquareClass
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        if isinstance(self.D, int):
            object.__setattr__(self, "D", SquareClass.of(self.D))
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        object.__setattr__(self, "c", _frac(self.c))
        al = self.alpha
        if al.norm() != self.c ** 4:
            raise KummerError("need norm(alpha) = c^4")
        if al.norm() == 0 or self.c == 0:
            raise KummerError("alpha and c must be nonzero")

    @property
    def alpha(self) -> QuadElem:
        return QuadElem.of(-self.D.rep, self.a, self.b)


# ---------------------------------------------------------------------------
# C3 codec
# ---------------------------------------------------------------------------

def c3_encode(cc: CoclassC3) -> EtaleAlgebra:
    """Cubic algebra x^3 - 3x - tr(delta); degenerate delta = +-1 gives the
    zero-coclass algebra K x T."""
    t = cc.delta.trace()
    if cc.delta.is_rational() and cc.delta.x in (1, -1):
        return _k_times_t(cc.D.rep)
    f = RationalPoly([-t, -3, 0, 1])
    if not is_squarefree(f):
        raise KummerError("unexpected degenerate trace")  # only t = +-2
    return EtaleAlgebra.from_poly(f)


def _k_times_t(D: int) -> EtaleAlgebra:
    x = RationalPoly([0, 1])
    if D == 1:
        return EtaleAlgebra([x, RationalPoly([-1, 1]), RationalPoly([1, 1])])
    return EtaleAlgebra([x, RationalPoly([-D, 0, 1])])


def c3_decode(L: EtaleAlgebra):
    """Inverse of c3_encode via Cardano; returns (CoclassC3, ambiguous)
    where ambiguous means the result is one of the conjugate pair
    {sigma, -sigma}."""
    if L.degree != 3:
        raise KummerError("need a cubic etale algebra")
    D = quadratic_resolvent(L).rep
    d = squarefree_part(-3 * D)
    if any(f.degree == 1 for f in L.factors):
        return CoclassC3(SquareClass(D), QuadElem.of(d, 1, 0)), False
    f = L.factors[0]
    g = f.shift(-f[2] / 3)  # depressed: x^3 + p x + q
    p, q = g[1], g[0]
    if p == 0:
        # pure Kummer branch: T' split, datum u = -q with delta = (u, 1/u)
        u = -q
        if d != 1:
            raise InternalError("internal: pure cubic whose -3D is not a square")
        delta = QuadElem.of(1, (u + 1 / u) / 2, (u - 1 / u) / 2)
        return CoclassC3(SquareClass(D), delta), True
    s_rad = q * q + Fraction(4, 27) * p ** 3
    m = _frac_sqrt(s_rad / d)
    if m is None:
        raise InternalError("internal: radicand not in expected square class")
    s = _frac_sqrt(-p / 3)
    if s is not None:
        # already rescalable to x^3 - 3x - t with t = -q/s^3
        t = -q / s ** 3
        delta = QuadElem.of(d, t / 2, (m / s ** 3) / 2)
    else:
        # -27 eta^2 / p^3 is exact in Q[sqrt(d)] and represents the
        # conjugate cube class (equivalent under the documented ambiguity)
        eta = QuadElem.of(d, -q / 2, m / 2)
        delta = (eta * eta) * (Fraction(-27) / p ** 3)
    if delta.norm() != 1:
        raise InternalError("internal: decoded delta not norm-one")
    return CoclassC3(SquareClass(D), delta), True


def c3_add(a: CoclassC3, b: CoclassC3) -> CoclassC3:
    if a.D != b.D:
        raise KummerError("mismatched twists D")
    return CoclassC3(a.D, a.delta * b.delta)


# ---------------------------------------------------------------------------
# V4 codec
# ---------------------------------------------------------------------------

def _v4_quartic(cc: CoclassV4) -> RationalPoly:
    char = cc._charpoly
    e1, e2 = -char[2], char[1]
    return RationalPoly([e1 * e1 - 4 * e2, -8, -2 * e1, 0, 1])


def _v4_rescalers(R: EtaleAlgebra):
    """Small norm-(+-1) elements beta of R, for moving delta inside its
    square class; requires a linear factor to absorb the norm."""
    lin = next((i for i, f in enumerate(R.factors) if f.degree == 1), None)
    if lin is None:
        return
    small = [Fraction(k) for k in (2, 3, 5, 7, -2, -3)] + \
            [Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)]
    pool = []
    for i, f in enumerate(R.factors):
        if i == lin:
            continue
        cands = []
        if f.degree == 1:
            cands = [RationalPoly([v]) for v in small]
        else:
            cands = [RationalPoly([c, 1]) for c in
                     (0, 1, -1, 2, -2, 3, Fraction(1, 2))]
            cands += [RationalPoly([v]) for v in small[:4]]
        pool.append((i, cands))
    for combo in itertools.product(*(cands for _, cands in pool)):
        coords = [None] * len(R.factors)
        n = Fraction(1)
        for (i, _), c in zip(pool, combo):
            f = R.factors[i]
            coords[i] = c % f
            n *= (-1) ** f.degree * charpoly(c, f)[0]
        if n:
            coords[lin] = RationalPoly([1 / n])
            yield tuple(coords)


def v4_encode(cc: CoclassV4) -> EtaleAlgebra:
    """Quartic with roots w1*sqrt(d1) + w2*sqrt(d2) + w3*sqrt(d3) over the
    even sign set: x^4 - 2 e1 x^2 - 8 x + (e1^2 - 4 e2)."""
    f = _v4_quartic(cc)
    if is_squarefree(f):
        return EtaleAlgebra.from_poly(f)
    # degenerate (colliding roots): move delta inside its square class
    if all(d == RationalPoly([Fraction(1)]) for d in cc.delta):
        # trivial class: L0 = Q x R
        return EtaleAlgebra([RationalPoly([0, 1])] + list(cc.R.factors))
    for beta in _v4_rescalers(cc.R):
        coords = tuple(
            (d * b * b) % fi
            for d, b, fi in zip(cc.delta, beta, cc.R.factors))
        try:
            cc2 = CoclassV4(cc.R, coords)
        except KummerError:
            continue
        f2 = _v4_quartic(cc2)
        if is_squarefree(f2):
            return EtaleAlgebra.from_poly(f2).canonical()
    raise KummerError("no square-class representative with separable "
                      "quartic found (bounded search exhausted)")


def _separable_model(L: EtaleAlgebra) -> RationalPoly:
    """A squarefree defining polynomial for L, shifting repeated factors."""
    out = RationalPoly([Fraction(1)])
    for f in L.factors:
        g = f
        shift = 0
        while gcd(out, g).degree >= 1:
            shift += 1
            g = f.shift(Fraction(shift))
        out = out * g
    return out


def v4_decode(f) -> CoclassV4:
    """Inverse of v4_encode: R = cubic resolvent, delta = class of -z/4 for
    z the auxiliary resolvent generator, normalized to norm one."""
    if isinstance(f, EtaleAlgebra):
        if f.degree != 4:
            raise KummerError("need a quartic")
        f = _separable_model(f)
    if f.degree != 4 or not is_squarefree(f):
        raise KummerError("need a separable quartic")
    f = f.monic()
    p, q, r, _ = depress_quartic(f)
    if q == 0:
        # Tschirnhaus: replace theta by theta + t*theta^2 until q != 0
        for t in (1, -1, 2, -2, Fraction(1, 2), 3):
            g = charpoly(RationalPoly([0, 1, Fraction(t)]), f)
            if is_squarefree(g):
                _, q2, _, _ = depress_quartic(g)
                if q2 != 0:
                    return v4_decode(g)
        raise KummerError("no Tschirnhaus transform found")
    res = cubic_resolvent_poly(f)
    R = EtaleAlgebra.from_poly(res)
    coords = []
    for fi in R.factors:
        d0 = RationalPoly([-p / 4, Fraction(1, 4)]) % fi  # (y - p)/4
        # delta = d0 * (8 d0 / q)^2, norm one inside the square class
        d = (d0 * d0 * d0 * RationalPoly([64 / (q * q)])) % fi
        coords.append(d)
    return CoclassV4(R, tuple(coords))


def v4_add(a: CoclassV4, b: CoclassV4) -> CoclassV4:
    if a.R != b.R:
        raise KummerError("data must share the resolvent algebra R")
    delta = tuple((x * y) % f
                  for x, y, f in zip(a.delta, b.delta, a.R.factors))
    return CoclassV4(a.R, delta)


# ---------------------------------------------------------------------------
# C4 codec
# ---------------------------------------------------------------------------

def _l0(D: int) -> EtaleAlgebra:
    x = RationalPoly([0, 1])
    if D == 1:
        return EtaleAlgebra([x, x, x, x])
    return EtaleAlgebra([x, x, RationalPoly([-D, 0, 1])])


def c4_encode(cc: CoclassC4) -> EtaleAlgebra:
    """Quartic (theta^2 - 2c)^2 = 2a + 2c^2, i.e.
    x^4 - 4c x^2 + (2c^2 - 2a); degenerate data (b = 0) in product form."""
    a, c = cc.a, cc.c
    if cc.b == 0:
        # roots collide: a = +-c^2; resolve by a trivializing rescale
        if a == c * c:
            return _l0(cc.D.rep)
        return _c4_degenerate(cc)
    f = _c4_quartic(a, c)
    if f is None:
        raise KummerError("unexpected degenerate quartic")
    return EtaleAlgebra.from_poly(f)


def _c4_quartic(a, c):
    """x^4 - 4c x^2 + (2c^2 - 2a), or None when it is not squarefree."""
    f = RationalPoly([2 * c * c - 2 * a, 0, -4 * c, 0, 1])
    return f if is_squarefree(f) else None


def _c4_degenerate(cc: CoclassC4) -> EtaleAlgebra:
    """Encode a b = 0 datum by first multiplying by a trivializing pair
    (beta^4, N(beta)) that moves it off the degenerate locus."""
    D = cc.D.rep
    for u, v in ((1, 1), (1, -1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 3)):
        beta = QuadElem.of(-D, u, v)
        n = beta.norm()
        if n == 0:
            continue
        al = cc.alpha * beta ** 4
        c = cc.c * n
        if al.x == c * c or al.x == -c * c:
            continue
        f = _c4_quartic(al.x, c)
        if f is not None:
            return EtaleAlgebra.from_poly(f).canonical()
    raise KummerError("no separable representative found for degenerate "
                      "datum (bounded search exhausted)")


def _datum_height(a, b, c) -> int:
    return sum(abs(q.numerator) + q.denominator for q in (a, b, c))


def _c4_reduce(a, b, c):
    """Divide (alpha, c) by small trivializing pairs (t^4, t^2), t rational,
    while the height drops."""
    ts = [Fraction(n) for n in (2, 3, 5, 7)] + \
         [Fraction(1, n) for n in (2, 3, 5, 7)]
    improved = True
    while improved:
        improved = False
        for t in ts:
            a2, b2, c2 = a / t ** 4, b / t ** 4, c / t ** 2
            if _datum_height(a2, b2, c2) < _datum_height(a, b, c):
                a, b, c = a2, b2, c2
                improved = True
    return a, b, c


def c4_decode(f) -> CoclassC4:
    """Inverse of c4_encode, with b determined up to sign (returned >= 0);
    split forms map to the special data (1, 1) and (-4, 2)."""
    if isinstance(f, RationalPoly):
        L = EtaleAlgebra.from_poly(f)
    else:
        L = f
    if L.degree != 4:
        raise KummerError("need a quartic etale algebra")
    degs = sorted(fi.degree for fi in L.factors)
    if degs == [1, 1, 1, 1]:
        return CoclassC4(SquareClass(1), Fraction(1), Fraction(0), Fraction(1))
    if degs == [1, 1, 2]:
        D = squarefree_part(_quad_disc(next(fi for fi in L.factors
                                            if fi.degree == 2)))
        return CoclassC4(SquareClass(D), Fraction(1), Fraction(0), Fraction(1))
    if degs == [2, 2]:
        m1, m2 = (squarefree_part(_quad_disc(fi)) for fi in L.factors)
        if m1 == m2:
            return CoclassC4(SquareClass(m1), Fraction(-4), Fraction(0),
                             Fraction(2))
        # the even model (x^2 - m1)(x^2 - 4 m2), read as c4_encode's
        # x^4 - 4c x^2 + (2c^2 - 2a)
        c = Fraction(m1 + 4 * m2, 4)
        a = c * c - 2 * m1 * m2
    elif degs == [4]:
        a, c = _c4_model(L.factors[0])
    else:
        raise UnsupportedStructure("no C4-module structure on this algebra")
    db2 = c ** 4 - a * a
    if db2 == 0:
        raise InternalError("internal: irreducible quartic gave b = 0")
    D = SquareClass.of(db2)
    b = _frac_sqrt(db2 / D.rep)
    a, b, c = _c4_reduce(a, b, c)
    return CoclassC4(D, a, abs(b), c)


def _c4_model(fq: RationalPoly):
    """(a, c) with fq isomorphic to x^4 - 4c x^2 + (2c^2 - 2a), for an
    irreducible quartic fq with a quadratic subfield."""
    p, q, r, _ = depress_quartic(fq)
    y1 = _rational_resolvent_root(fq)
    if y1 is None:
        raise UnsupportedStructure("no quadratic subfield (resolvent has "
                                   "no rational root)")
    # factor the depressed quartic as (x^2+ux+v)(x^2-ux+v') over E = Q[u]
    if y1 == p:
        # u = 0: v, v' = roots of z^2 - y1 z + r
        dE = squarefree_part(y1 * y1 - 4 * r)
        mE = _frac_sqrt((y1 * y1 - 4 * r) / dE)
        v = QuadElem.of(dE, y1 / 2, mE / 2)
        u = QuadElem.of(dE, 0, 0)
    else:
        dE = squarefree_part(y1 - p)
        mE = _frac_sqrt((y1 - p) / dE)
        u = QuadElem.of(dE, 0, mE)
        # v = (y1 - q/u)/2 with q/u = q*u/(y1-p)
        qu = u * (q / (y1 - p))
        v = (QuadElem.of(dE, y1, 0) - qu) * Fraction(1, 2)
    w = u * u - 4 * v  # eta = 2*theta + u satisfies eta^2 = w in E
    c = w.trace() / 4
    if c == 0:
        raise UnsupportedStructure("degenerate biquadratic model (c = 0)")
    return c * c - w.norm() / 2, c


def _quad_disc(f: RationalPoly) -> Fraction:
    f = f.monic()
    return f[1] * f[1] - 4 * f[0]


def _rational_resolvent_root(f: RationalPoly):
    res = cubic_resolvent_poly(f)
    roots = [-h[0] / h[1] for h, _ in factor_rationals(res) if h.degree == 1]
    return min(roots) if roots else None


def c4_add(a: CoclassC4, b: CoclassC4) -> CoclassC4:
    if a.D != b.D:
        raise KummerError("mismatched twists D")
    al = a.alpha * b.alpha
    c = a.c * b.c
    x, y, c = _c4_reduce(al.x, al.y, c)
    return CoclassC4(a.D, x, y, c)
