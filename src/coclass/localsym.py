"""Local fields at desk scale: square and cube class groups of Q_p and
small tame extensions, the Hilbert symbol with an independent conic oracle,
tame symbols over residue fields F_{p^f}, local H^1 enumeration, and the
local Tate pairings for the order-3 and C2 x C2 modules.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import InternalError
from ._kernels import conic_search
from .etalealg import EtaleAlgebra, squarefree_part
from .exactpoly import discriminant, modp
from .exactpoly.modp import is_prime
from .kummerh1 import QuadElem, _frac_sqrt


class LocalSymError(ValueError):
    pass


class UnsupportedLocal(LocalSymError):
    pass


# ---------------------------------------------------------------------------
# places and local fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Place:
    p: int  # 0 means the real place

    def __post_init__(self):
        if self.p != 0 and not is_prime(self.p):
            raise LocalSymError(f"{self.p} is not prime")

    @staticmethod
    def real() -> "Place":
        return Place(0)

    @property
    def is_real(self) -> bool:
        return self.p == 0


@dataclass(frozen=True)
class LocalFieldDesc:
    """A tame local field: unramified degree f, ramification e, over p."""

    p: int
    f: int = 1
    e: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise LocalSymError("p must be prime")
        if self.f not in (1, 2, 3) or self.e not in (1, 2, 3):
            raise UnsupportedLocal("only f, e in {1, 2, 3}")
        if self.e % self.p == 0:
            raise UnsupportedLocal("wild ramification not supported")

    @property
    def q(self) -> int:
        return self.p ** self.f


@dataclass(frozen=True)
class SymbolValue:
    """A root of unity in mu_m, stored as an exponent of the fixed
    primitive m-th root."""

    m: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k % self.m)

    def __mul__(self, other: "SymbolValue") -> "SymbolValue":
        if self.m != other.m:
            raise LocalSymError("mixed mu_m values")
        return SymbolValue(self.m, self.k + other.k)

    def inverse(self) -> "SymbolValue":
        return SymbolValue(self.m, -self.k)

    def is_trivial(self) -> bool:
        return self.k == 0

    def to_str(self) -> str:
        if self.m == 2:
            return "+1" if self.k == 0 else "-1"
        return "+1" if self.k == 0 else f"zeta3^{self.k}"


# The unique nonzero alternating bilinear form on C2 x C2 (values in C2).
EPSILON_FORM = {
    (x, y): (0 if x == y or x == (0, 0) or y == (0, 0) else 1)
    for x in [(0, 0), (1, 0), (0, 1), (1, 1)]
    for y in [(0, 0), (1, 0), (0, 1), (1, 1)]
}


# ---------------------------------------------------------------------------
# rational p-adic utilities
# ---------------------------------------------------------------------------

def _rational(x):
    """x itself when it is an int or a Fraction, else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _split(x, p: int):
    """(v, n, d) with x = p^v * n / d and p dividing neither n nor d."""
    x = _rational(x)
    n, d = x.numerator, x.denominator
    if n == 0:
        raise LocalSymError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, n, d


def vp(x, p: int) -> int:
    return _split(x, p)[0]


def unit_part_mod(x, p: int, k: int = 1) -> int:
    """The unit x / p^v(x) as a residue mod p^k."""
    _, n, d = _split(x, p)
    m = p ** k
    return n * pow(d, -1, m) % m


def legendre(a: int, p: int) -> int:
    """(a|p) in {1, -1} for p odd, a a unit mod p."""
    a %= p
    if a == 0:
        raise LocalSymError("not a unit")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def is_square_padic(x, p: int) -> bool:
    """Whether a nonzero rational is a square in Q_p."""
    v, n, d = _split(x, p)
    if v % 2:
        return False
    if p == 2:
        return n * pow(d, -1, 8) % 8 == 1
    return legendre(n * pow(d, -1, p), p) == 1


def sqrt_padic(x, p: int, prec: int = 60) -> Fraction:
    """An approximation t (mod p^prec on the unit part) with t^2 = x in
    Q_p; requires x a p-adic square, p odd."""
    x = Fraction(x)
    if not is_square_padic(x, p) or p == 2:
        raise LocalSymError("not an odd-p square")
    v = vp(x, p)
    u = unit_part_mod(x, p, prec)
    m = p ** prec
    r = next(r for r in range(1, p) if r * r % p == u % p)
    # Newton lift: r <- (r + u/r)/2
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        mk = p ** k
        r = (r + u * pow(r, -1, mk)) * pow(2, -1, mk) % mk
    return Fraction(r * p ** (v // 2))


# ---------------------------------------------------------------------------
# residue fields F_{p^f}
# ---------------------------------------------------------------------------

class ResidueField:
    """F_{p^f} = F_p[s]/(modulus) for a monic irreducible modulus of degree
    f, or F_p itself when no modulus is given; elements are f-tuples of
    ints mod p."""

    def __init__(self, p: int, modulus=None):
        self.p, self.modulus = p, modulus
        self.f = len(modulus) - 1 if modulus else 1
        self.q = p ** self.f

    def elem(self, coeffs) -> tuple:
        out = list(coeffs)[: self.f] + [0] * max(0, self.f - len(coeffs))
        return tuple(c % self.p for c in out)

    def one(self):
        return self.elem([1])

    def mul(self, a, b):
        prod = modp.gf_mul(list(a), list(b), self.p)
        if self.f > 1:
            prod = modp.gf_rem(prod, self.modulus, self.p)
        out = prod + [0] * self.f
        return tuple(out[: self.f])

    def pow(self, a, n: int):
        if n < 0:
            a = self.pow(a, self.q - 2)  # inverse
            n = -n
        out = self.one()
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def is_zero(self, a) -> bool:
        return all(c % self.p == 0 for c in a)

    def zeta(self, m: int):
        """A fixed primitive m-th root of unity (q = 1 mod m required)."""
        if (self.q - 1) % m:
            raise UnsupportedLocal(f"mu_{m} not in F_{self.q}")
        if m == 2:
            return self.elem([-1])
        # smallest generator-power convention: first element of order m
        for tail in itertools.product(range(self.p), repeat=self.f):
            cand = self.elem(tail)
            if self.is_zero(cand):
                continue
            z = self.pow(cand, (self.q - 1) // m)
            if z != self.one():
                return z
        raise LocalSymError("no primitive root found")

    def dlog_mu(self, val, m: int) -> int:
        """Exponent k with val = zeta(m)^k."""
        modulus = tuple(self.modulus) if self.modulus else None
        k = _mu_logs(self.p, modulus, m).get(val)
        if k is None:
            raise LocalSymError("value not in mu_m")
        return k


@functools.lru_cache(maxsize=64)
def _mu_logs(p: int, modulus, m: int) -> dict:
    """{zeta(m)^k: k} in F_p[s]/(modulus).  Fields are rebuilt for every
    symbol, so the search for zeta is kept here, once per field and m."""
    R = ResidueField(p, list(modulus) if modulus else None)
    z = R.zeta(m)
    out, cur = {}, R.one()
    for k in range(m):
        out.setdefault(cur, k)
        cur = R.mul(cur, z)
    return out


def tame_symbol_residue(R: ResidueField, va: int, ra, vb: int, rb,
                        m: int) -> SymbolValue:
    """omega((-1)^{v(a)v(b)} a^{v(b)} b^{-v(a)})^{(q-1)/m} from valuations
    and unit residues."""
    u = R.one()
    if (va * vb) % 2:
        u = R.mul(u, R.elem([-1]))
    u = R.mul(u, R.pow(ra, vb))
    u = R.mul(u, R.pow(rb, -va))
    val = R.pow(u, (R.q - 1) // m)
    return SymbolValue(m, R.dlog_mu(val, m))


# ---------------------------------------------------------------------------
# local classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalClass:
    """A canonical m-th power class of a local field element."""

    m: int
    place: Place
    valuation: int          # mod m (mod 2 at the real place: the sign bit)
    unit_part: int          # character data: Legendre bit, mod-8 unit, or
                            # cube-character exponent
    rep: Fraction           # a canonical rational representative

    def __repr__(self):
        return f"LocalClass(m={self.m}, p={self.place.p}, rep={self.rep})"


def _nonresidue(p: int) -> int:
    return next(u for u in range(2, p) if legendre(u, p) == -1)


def _noncube_unit(p: int) -> int:
    # p = 1 mod 3 required
    return next(u for u in range(2, p)
                if pow(u, (p - 1) // 3, p) != 1)


def square_class(a, place: Place) -> LocalClass:
    """The canonical square class of a nonzero rational at a place."""
    a = Fraction(a)
    if a == 0:
        raise LocalSymError("zero has no class")
    if place.is_real:
        s = 0 if a > 0 else 1
        return LocalClass(2, place, s, s, Fraction(1 if a > 0 else -1))
    p = place.p
    v = vp(a, p) % 2
    if p == 2:
        u = unit_part_mod(a, 2, 3)
        rep = Fraction((2 ** v) * u)
        return LocalClass(2, place, v, u, rep)
    u = unit_part_mod(a, p)
    bit = 0 if legendre(u, p) == 1 else 1
    rep = Fraction((p ** v) * (_nonresidue(p) if bit else 1))
    return LocalClass(2, place, v, bit, rep)


def square_classes(place: Place):
    """Complete duplicate-free list of square classes at a place."""
    if place.is_real:
        return [square_class(1, place), square_class(-1, place)]
    p = place.p
    if p == 2:
        return [square_class(u * t, place) for t in (1, 2)
                for u in (1, 3, 5, 7)]
    u = _nonresidue(p)
    return [square_class(r, place) for r in (1, u, p, u * p)]


def cube_classes(F: LocalFieldDesc):
    """All cube classes of F^x: 9 when q = 1 mod 3, else 3."""
    p = F.p
    if p == 3:
        raise UnsupportedLocal("wild: cube classes at p = 3")
    vals = range(3)
    if (F.q - 1) % 3:
        return [LocalClass(3, Place(p), v, 0, Fraction(p) ** v) for v in vals]
    if F.f == 1:
        u = _noncube_unit(p)
        return [LocalClass(3, Place(p), v, k, Fraction(u ** k * p ** v))
                for v in vals for k in range(3)]
    # representatives as (valuation, character) data for extension fields
    return [LocalClass(3, Place(p), v, k, Fraction(0))
            for v in vals for k in range(3)]


# ---------------------------------------------------------------------------
# Hilbert symbol and conic oracle
# ---------------------------------------------------------------------------

def hilbert2(a, b, place: Place) -> SymbolValue:
    """The quadratic Hilbert symbol at a place of Q."""
    a, b = _rational(a), _rational(b)
    if a == 0 or b == 0:
        raise LocalSymError("arguments must be nonzero")
    if place.is_real:
        return SymbolValue(2, 1 if (a < 0 and b < 0) else 0)
    p = place.p
    m = 8 if p == 2 else p
    al, n, d = _split(a, p)
    u = n * pow(d, -1, m) % m
    be, n, d = _split(b, p)
    v = n * pow(d, -1, m) % m
    if p == 2:
        eps = ((u - 1) // 2) * ((v - 1) // 2)
        om_u, om_v = (u * u - 1) // 8, (v * v - 1) // 8
        return SymbolValue(2, eps + al * om_v + be * om_u)
    sign = 1
    if (al * be * (p - 1) // 2) % 2:
        sign = -sign
    sign *= legendre(u, p) ** be
    sign *= legendre(v, p) ** al
    return SymbolValue(2, 0 if sign == 1 else 1)


def conic_has_point(a, b, place: Place) -> bool:
    """Independent oracle: does a x^2 + b y^2 = z^2 have a point?"""
    a, b = _rational(a), _rational(b)
    if a == 0 or b == 0:
        raise LocalSymError("arguments must be nonzero")
    if place.is_real:
        return a > 0 or b > 0
    p = place.p
    m = 8 if p == 2 else p

    def reduce(x) -> int:
        # dividing a coefficient by a rational square rescales a coordinate
        # and preserves solvability; reduce to valuation 0 or 1 with a
        # small unit part
        v, n, d = _split(x, p)
        return p ** (v % 2) * (n * pow(d, -1, m) % m)

    ai, bi = reduce(a), reduce(b)
    if p == 2:
        k = 1 + 2 * vp(2 * ai * bi, 2) + 2
    else:
        # square-reduced coefficients: solvability is decided mod p^3
        k = 3
    return bool(conic_search(int(ai), int(bi), p, k))


# ---------------------------------------------------------------------------
# quadratic local contexts (for the Tate pairings)
# ---------------------------------------------------------------------------

class _QuadCtx:
    """Q_p(sqrt(d)) for d a rational non-square in Q_p, p odd: valuations,
    residues, and tame symbols for coordinate pairs (x, y) = x + y sqrt(d)."""

    def __init__(self, p: int, d: Fraction):
        self.p, self.d = p, Fraction(d)
        if is_square_padic(self.d, p):
            raise LocalSymError("d is a p-adic square")
        self.ramified = vp(self.d, p) % 2 == 1
        # unramified: s^2 = d aligns the residue generator s with sqrt(d)
        self.R = ResidueField(p) if self.ramified else \
            ResidueField(p, [(-unit_part_mod(self.d, p)) % p, 0, 1])

    def valued(self, x: Fraction, y: Fraction):
        """(valuation, unit residue) of x + y sqrt(d); no cross-basis
        cancellation is possible, so this is exact."""
        p, d = self.p, self.d
        if x == 0 and y == 0:
            raise LocalSymError("zero element")
        if not self.ramified:
            vx = vp(x, p) if x else None
            vy = vp(y, p) if y else None
            v = min(w for w in (vx, vy) if w is not None)
            rx = unit_part_mod(x, p) if x and vx == v else 0
            ry = unit_part_mod(y, p) if y and vy == v else 0
            return v, self.R.elem([rx, ry])
        # ramified: pi = sqrt(d), pi^2 = d
        va = 2 * vp(x, p) if x else None
        vb = 2 * vp(y, p) + 1 if y else None
        v = min(w for w in (va, vb) if w is not None)
        if v % 2 == 0:
            a = x / d ** (v // 2)
            return v, self.R.elem([unit_part_mod(a, p)])
        b = y / d ** ((v - 1) // 2)
        return v, self.R.elem([unit_part_mod(b, p)])

    def symbol(self, e1, e2, m: int) -> SymbolValue:
        v1, r1 = self.valued(*e1)
        v2, r2 = self.valued(*e2)
        return tame_symbol_residue(self.R, v1, r1, v2, r2, m)


class _QuarticCtx:
    """Q_p(sqrt(d3), sqrt(dpi)) with d3 an inert unit class and dpi a
    ramified class, p odd: e = 2, f = 2.  Elements are 4-tuples over the
    basis {1, sqrt(d3), sqrt(dpi), sqrt(d3)sqrt(dpi)}."""

    def __init__(self, p: int, d3: Fraction, dpi: Fraction):
        self.p = p
        self.d3, self.dpi = Fraction(d3), Fraction(dpi)
        if vp(self.d3, p) % 2 or is_square_padic(self.d3, p):
            raise LocalSymError("d3 must be an inert unit class")
        if vp(self.dpi, p) % 2 == 0:
            raise LocalSymError("dpi must be ramified")
        self.R = ResidueField(p, [(-unit_part_mod(self.d3, p)) % p, 0, 1])

    def valued(self, a, b, c, d):
        """(valuation, unit residue) of a + b s3 + c pi + d s3 pi."""
        p, D = self.p, self.dpi
        vA = min((vp(t, p) for t in (a, b) if t), default=None)
        vB = min((vp(t, p) for t in (c, d) if t), default=None)
        cands = []
        if vA is not None:
            cands.append(2 * vA)
        if vB is not None:
            cands.append(2 * vB + 1)
        if not cands:
            raise LocalSymError("zero element")
        v = min(cands)
        scale = D ** (v // 2)

        def residue(t):
            t = t / scale
            return unit_part_mod(t, p) if t and vp(t, p) == 0 else 0

        pair = (a, b) if v % 2 == 0 else (c, d)
        return v, self.R.elem([residue(t) for t in pair])

    symbol = _QuadCtx.symbol


# ---------------------------------------------------------------------------
# Tate pairings
# ---------------------------------------------------------------------------

def _embed_split(elem, base: int, p: int, sign: int,
                 norm_one: bool = False) -> Fraction:
    """Component of a quadratic-algebra element under a split embedding.
    Rational data are diagonal, unless norm_one is set, in which case a
    rational u abbreviates the norm-one pair (u, 1/u)."""
    if isinstance(elem, QuadElem):
        x, y = elem.x, elem.y
        d = elem.d
    else:
        e = Fraction(elem)
        return e if sign > 0 or not norm_one else 1 / e
    if d == 1:
        return x + sign * y
    t = sqrt_padic(Fraction(d), p)
    val = x + sign * y * t
    if val == 0:
        raise LocalSymError("insufficient p-adic precision")
    return val


def _coords(elem, base: int):
    """Exact (x, y)-coordinates over sqrt(base) of a QuadElem/rational."""
    if isinstance(elem, QuadElem):
        if elem.d != base:
            raise LocalSymError("element lives over the wrong twist")
        return elem.x, elem.y
    return Fraction(elem), Fraction(0)


def tate_pair_c3(p: int, D, sigma, tau) -> SymbolValue:
    """Local Tate pairing for the order-3 module twisted by D: the cubic
    Hilbert pairing on E = T[mu_3], T = Q_p[sqrt(D)].  sigma lives on the
    dual side T' = Q_p[sqrt(-3D)], tau on T; both rationals (split data)
    or QuadElems."""
    if not is_prime(p):
        raise LocalSymError(f"{p} is not prime")
    if p in (2, 3):
        raise UnsupportedLocal("p must not divide 6")
    if sigma == 0 or tau == 0:
        raise LocalSymError("sigma and tau must be nonzero")
    D = Fraction(getattr(D, "rep", D))
    d = squarefree_part(D)
    dp = squarefree_part(-3 * D)
    sD = is_square_padic(Fraction(d), p) if d != 1 else True
    s3 = is_square_padic(Fraction(-3), p)
    s3D = is_square_padic(Fraction(dp), p) if dp != 1 else True
    if sD and s3D:
        # everything splits: one symbol per component of E = T[mu_3]; the
        # second component sees the conjugate root of unity, so its
        # exponent enters with the opposite sign
        R = ResidueField(p)
        if (R.q - 1) % 3:
            raise InternalError("internal: -3 square forces p = 1 mod 3")
        u1 = _embed_split(sigma, dp, p, 1, norm_one=True)
        u2 = _embed_split(sigma, dp, p, -1, norm_one=True)
        w1 = _embed_split(tau, d, p, 1)
        w2 = _embed_split(tau, d, p, -1)
        s1 = tame_symbol_residue(
            R, vp(u1, p), R.elem([unit_part_mod(u1, p)]),
            vp(w1, p), R.elem([unit_part_mod(w1, p)]), 3)
        s2 = tame_symbol_residue(
            R, vp(u2, p), R.elem([unit_part_mod(u2, p)]),
            vp(w2, p), R.elem([unit_part_mod(w2, p)]), 3)
        return s1 * s2.inverse()
    if not sD and not s3D:
        xs, ys = _coords(sigma, dp)
        xt, yt = _coords(tau, d)
        # exact relation: dp * g^2 = -3 d, g rational, so
        # sqrt(dp) = sqrt(-3) sqrt(d) / g
        g = _frac_sqrt(Fraction(-3 * d, dp))
        if g is None:
            raise InternalError("internal: twist classes inconsistent")
        if s3:
            # sqrt(-3) is rational p-adically: one symbol on Q_p(sqrt(d))
            ctx = _QuadCtx(p, Fraction(d))
            r3 = sqrt_padic(Fraction(-3), p)
            return ctx.symbol((xs, ys * r3 / g), (xt, yt), 3)
        # quartic field E = Q_p(sqrt(-3), sqrt(d)): s3 inert, pi^2 = d
        ctx = _QuarticCtx(p, Fraction(-3), Fraction(d))
        e_sigma = (xs, Fraction(0), Fraction(0), ys / g)
        e_tau = (xt, Fraction(0), yt, Fraction(0))
        return ctx.symbol(e_sigma, e_tau, 3)
    if sD and not s3D:
        # T splits, T' is the field Q_p(sqrt(-3)): two conjugate symbols;
        # the embedding conjugating sqrt(-3D) contributes with the
        # opposite sign (the components multiply to the trivial norm)
        ctx = _QuadCtx(p, Fraction(-3))
        xs, ys = _coords(sigma, dp)
        t = sqrt_padic(Fraction(dp, -3), p)
        out = SymbolValue(3, 0)
        for sign in (1, -1):
            w = _embed_split(tau, d, p, sign)
            s = ctx.symbol((xs, sign * ys * t), (w, Fraction(0)), 3)
            out = out * (s if sign > 0 else s.inverse())
        return out
    # T field, T' splits: single symbol on the inert field Q_p(sqrt(d))
    ctx = _QuadCtx(p, Fraction(d))
    u = _embed_split(sigma, dp, p, 1, norm_one=True)
    xt, yt = _coords(tau, d)
    return ctx.symbol((u, Fraction(0)), (xt, yt), 3)


def tate_pair_v4(p: int, R, sigma, tau) -> SymbolValue:
    """Local Tate pairing for C2 x C2 twisted by the cubic algebra R: the
    quadratic Hilbert pairing on R, componentwise.  For split R the data
    are triples of rationals."""
    if p == 2:
        raise UnsupportedLocal("p must be odd")
    if isinstance(R, EtaleAlgebra):
        factors = R.factors
    else:
        factors = tuple(R)
    if len(sigma) != len(factors) or len(tau) != len(factors):
        raise LocalSymError("coordinate count mismatch")
    place = Place(p)
    out = SymbolValue(2, 0)
    for f, s, t in zip(factors, sigma, tau):
        deg = f.degree if hasattr(f, "degree") else 1
        if deg == 1:
            out = out * hilbert2(s, t, place)
            continue
        if deg != 2:
            raise UnsupportedLocal("factors of degree > 2 not supported")
        m = squarefree_part(discriminant(f))
        if is_square_padic(m, p):
            for sign in (1, -1):
                u = _embed_split(s, m, p, sign)
                w = _embed_split(t, m, p, sign)
                out = out * hilbert2(u, w, place)
        else:
            ctx = _QuadCtx(p, Fraction(m))
            out = out * ctx.symbol(_coords(s, m), _coords(t, m), 2)
    return out


# ---------------------------------------------------------------------------
# local H^1 enumeration and localization
# ---------------------------------------------------------------------------

def enumerate_h1_local(module: str, p: int, D=None):
    """Complete lists of local coclass data: 'c2' -> square classes;
    'mu3' or split 'c3' -> cube classes; 'v4' (split R) -> triples of
    square classes with trivial product class."""
    place = Place(p)
    if module == "c2":
        return [c.rep for c in square_classes(place)]
    if place.is_real and module in ("c3", "v4"):
        raise LocalSymError(f"module {module!r} needs a prime p")
    if module in ("mu3", "c3"):
        if p == 3:
            raise UnsupportedLocal("wild: p = 3")
        if module == "c3":
            dp = squarefree_part(-3 * Fraction(getattr(D, "rep", D if D is not None else 1)))
            if dp != 1 and not is_square_padic(Fraction(dp), p):
                raise UnsupportedLocal("nonsplit T' enumeration not "
                                       "supported")
        return [c.rep for c in cube_classes(LocalFieldDesc(p))]
    if module == "v4":
        if p == 2:
            raise UnsupportedLocal("p must be odd")
        reps = [c.rep for c in square_classes(place)]
        out = []
        for a in reps:
            for b in reps:
                ab = a * b
                for c in reps:
                    if is_square_padic(ab * c, p):
                        out.append((a, b, c))
        return out
    raise UnsupportedLocal(f"unknown module {module!r}")
