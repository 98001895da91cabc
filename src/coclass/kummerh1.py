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
    UnsupportedStructure,
    _resolvent_of_depressed,
    depress_quartic,
    quadratic_resolvent,
)
from .exactpoly import RationalPoly, charpoly, factor_rationals, gcd, is_squarefree
from .quadratic import (KummerError, QuadElem, SquareClass, _frac_sqrt,
                        quadratic_class, squarefree_part)


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
        if len(self.delta) != len(self.R.factors):
            raise KummerError("delta needs one coordinate per factor of R")
        coords = tuple(
            (d if isinstance(d, RationalPoly) else RationalPoly([Fraction(d)]))
            % f
            for d, f in zip(self.delta, self.R.factors))
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
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
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
    # squarefree: the discriminant 27 (4 - t^2) vanishes only at delta = +-1
    return EtaleAlgebra.from_poly(RationalPoly([-t, -3, 0, 1]))


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


def _models(f: RationalPoly):
    """f, then lazily the squarefree characteristic polynomials of
    theta + t*theta^2 for t = 1, -1, 2, -2, 1/2, 3, theta a root of the
    quartic f: defining polynomials of the algebra of f."""
    yield f
    for t in (1, -1, 2, -2, Fraction(1, 2), 3):
        g = charpoly(RationalPoly([0, 1, Fraction(t)]), f)
        if is_squarefree(g):
            yield g


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
    # Tschirnhaus: replace theta by theta + t*theta^2 until q != 0
    for g in _models(f.monic()):
        p, q, r, _ = depress_quartic(g)
        if q != 0:
            break
    else:
        raise KummerError("no Tschirnhaus transform found")
    R = EtaleAlgebra.from_poly(_resolvent_of_depressed(p, q, r))
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
    return EtaleAlgebra.from_poly(_c4_quartic(a, c))


def _c4_quartic(a, c):
    """x^4 - 4c x^2 + (2c^2 - 2a), squarefree unless a = +-c^2: its roots
    x^2 = 2c +- sqrt(2a + 2c^2) are nonzero and distinct otherwise."""
    return RationalPoly([2 * c * c - 2 * a, 0, -4 * c, 0, 1])


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
        if al.x != c * c and al.x != -c * c:
            return EtaleAlgebra.from_poly(_c4_quartic(al.x, c)).canonical()
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
        D = quadratic_class(next(fi for fi in L.factors if fi.degree == 2))
        return CoclassC4(SquareClass(D), Fraction(1), Fraction(0), Fraction(1))
    if degs == [2, 2]:
        m1, m2 = (quadratic_class(fi) for fi in L.factors)
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
    """(a, c) with fq isomorphic to x^4 - 4c x^2 + (2c^2 - 2a), c != 0 and
    c^4 != a^2 (b != 0), for an irreducible quartic fq with a quadratic
    subfield.  The rational roots of the resolvent are tried in increasing
    order; when none gives such a model (x^4 + 1), the primitive element
    theta changes to theta + t*theta^2 (`_models`).  If no change helps
    either, the degeneracies met are reported."""
    met = set()
    for g in _models(fq):
        p, q, r, _ = depress_quartic(g)
        roots = sorted(-h[0] / h[1] for h, _ in factor_rationals(
            _resolvent_of_depressed(p, q, r)) if h.degree == 1)
        if not roots:
            raise UnsupportedStructure("no quadratic subfield (resolvent has "
                                       "no rational root)")
        for y1 in roots:
            a, c = _c4_model_at(p, q, r, y1)
            if c == 0:
                met.add("c = 0")
            elif c ** 4 == a * a:
                met.add("b = 0")
            else:
                return a, c
    raise UnsupportedStructure(
        f"degenerate biquadratic model ({' and '.join(sorted(met))})")


def _c4_model_at(p, q, r, y1):
    """(a, c) = (c^2 - N(w)/2, tr(w)/4) of the model x^4 - tr(w) x^2 + N(w),
    the charpoly of eta = 2*theta + u, from the rational root y1 of the
    resolvent of the depressed quartic x^4 + p x^2 + q x + r, which over
    E = Q(u) is (x^2 + ux + v)(x^2 - ux + v'), with eta^2 = w = u^2 - 4v
    (Kappe & Warren, Amer. Math. Monthly 96, 1989).  For y1 = p, u = 0 and
    v + v' = p, v v' = r: tr(w) = -4p, N(w) = 16r.  Otherwise u^2 = y1 - p
    and v = (y1 - q/u)/2: tr(w) = -2(p + y1), N(w) = (p + y1)^2 -
    4q^2/(y1 - p)."""
    if y1 == p:
        return p * p - 8 * r, -p
    c = -(p + y1) / 2
    return c * c - ((p + y1) ** 2 - 4 * q * q / (y1 - p)) / 2, c


def c4_add(a: CoclassC4, b: CoclassC4) -> CoclassC4:
    if a.D != b.D:
        raise KummerError("mismatched twists D")
    al = a.alpha * b.alpha
    c = a.c * b.c
    x, y, c = _c4_reduce(al.x, al.y, c)
    return CoclassC4(a.D, x, y, c)
