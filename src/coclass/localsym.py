"""Local fields at desk scale: square and cube class groups of Q_p and
small tame extensions, the Hilbert symbol with an independent conic oracle,
local H^1 enumeration, and the local Tate pairings for the order-3 and
C2 x C2 modules.  The pairings take tame symbols (Serre, Local Fields,
ch. XIV) on one context, Q_p(sqrt(u), sqrt(r)) with e, f <= 2 and p odd,
whose residue-field arithmetic is `exactpoly.modp`; the order-3 pairing
covers every twist at the primes p not dividing 6."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import InternalError
from ._kernels import conic_search
from .etalealg import EtaleAlgebra, _frac_sqrt, squarefree_part
from .exactpoly import discriminant, modp
from .exactpoly.modp import is_prime
from .kummerh1 import QuadElem


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
# tame symbols over residue fields F_q = F_p[s]/(modulus)
# ---------------------------------------------------------------------------

def _zeta(p: int, modulus: tuple, m: int) -> list:
    """The fixed primitive m-th root of unity of F_p[s]/(modulus): -1 for
    m = 2, else c^((q-1)/m) for the first nonzero c, in itertools.product
    order of its coefficients, at which that power is not 1."""
    if m == 2:
        return [p - 1]
    f = len(modulus) - 1
    for tail in itertools.product(range(p), repeat=f):
        c = modp.trim(list(tail))
        if c:
            z = modp.gf_pow_mod(c, (p ** f - 1) // m, list(modulus), p)
            if z != [1]:
                return z
    raise LocalSymError("no primitive root found")


@functools.lru_cache(maxsize=64)
def _mu_logs(p: int, modulus: tuple, m: int) -> dict:
    """{zeta^k: k} in F_p[s]/(modulus), keyed by coefficient tuples.
    Symbols are taken field by field, so the search for zeta is kept here,
    once per field and m."""
    q = p ** (len(modulus) - 1)
    if (q - 1) % m:
        raise UnsupportedLocal(f"mu_{m} not in F_{q}")
    z = _zeta(p, modulus, m)
    out, cur = {}, [1]
    for k in range(m):
        out.setdefault(tuple(cur), k)
        cur = modp.gf_rem(modp.gf_mul(cur, z, p), list(modulus), p)
    return out


def tame_symbol_residue(p: int, modulus: tuple, va: int, ra: list, vb: int,
                        rb: list, m: int) -> SymbolValue:
    """omega((-1)^{v(a)v(b)} a^{v(b)} b^{-v(a)})^{(q-1)/m} from valuations
    and unit residues in F_q = F_p[s]/(modulus) (Serre, Local Fields,
    ch. XIV).  Its value lies in mu_m, so the exponents of the residues
    are taken mod m."""
    logs, mod = _mu_logs(p, modulus, m), list(modulus)
    x = [p - 1] if va * vb % 2 else [1]
    for r in [ra] * (vb % m) + [rb] * (-va % m):
        x = modp.gf_rem(modp.gf_mul(x, r, p), mod, p)
    q = p ** (len(mod) - 1)
    log = logs.get(tuple(modp.gf_pow_mod(x, (q - 1) // m, mod, p)))
    if log is None:
        raise LocalSymError("value not in mu_m")
    return SymbolValue(m, log)


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
# tame fields of degree <= 4 (for the Tate pairings)
# ---------------------------------------------------------------------------

class _TameField:
    """Q_p(sqrt(u), sqrt(r)) for p odd, u an inert unit class and r a class
    of valuation 1, each optional: f = 2 with u, e = 2 with r.  Elements
    are coordinates over 1, sqrt(u), then the same times sqrt(r).  The
    residue field is F_p[s]/(modulus) with s^2 = u, or F_p as modulus
    (0, 1)."""

    def __init__(self, p: int, u=None, r=None):
        self.p, self.f, self.e = p, 1, 1
        self.modulus = (0, 1)
        if u is not None:
            uv, n, d = _split(u, p)
            if uv % 2 or is_square_padic(u, p):
                raise LocalSymError("u must be an inert unit class")
            self.f, self.modulus = 2, (-n * pow(d, -1, p) % p, 0, 1)
        if r is not None:
            rv, n, d = _split(r, p)
            if rv != 1:
                raise LocalSymError("r must have valuation 1")
            self.e, self.r_inv = 2, d * pow(n, -1, p) % p

    @staticmethod
    def quadratic(p: int, d) -> "_TameField":
        """Q_p(sqrt(d)) for a squarefree d that is no square in Q_p."""
        if is_square_padic(d, p):
            raise LocalSymError("d is a p-adic square")
        return _TameField(p, r=d) if vp(d, p) % 2 else _TameField(p, u=d)

    def valued(self, coords):
        """(valuation, unit residue) of A + B sqrt(r): the valuation is
        min(e v(A), 2 v(B) + 1), and no cross-basis cancellation is
        possible, so this is exact.  The residue is that of A or of B,
        divided by r^k for v = 2k or 2k + 1."""
        p, f = self.p, self.f
        parts = [_split(t, p) if t else None for t in coords]
        vals = [self.e * s[0] + i // f for i, s in enumerate(parts) if s]
        if not vals:
            raise LocalSymError("zero element")
        v = min(vals)
        k, i = divmod(v, self.e)
        # pi = sqrt(r), and pi^v is r^k or r^k sqrt(r)
        scale = pow(self.r_inv, k, p) if self.e == 2 else 1
        res = [s[1] * pow(s[2], -1, p) * scale % p if s and s[0] == k else 0
               for s in parts[i * f:(i + 1) * f]]
        return v, modp.trim(res)

    def symbol(self, x, y, m: int) -> SymbolValue:
        vx, rx = self.valued(x)
        vy, ry = self.valued(y)
        return tame_symbol_residue(self.p, self.modulus, vx, rx, vy, ry, m)


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
    if sD:
        # T splits: one symbol per embedding of T.  The conjugate embedding
        # sees the conjugate root of unity, so its exponent enters with the
        # opposite sign (the components multiply to the trivial norm).
        if s3D:
            # T' splits too: both symbols live on Q_p
            if (p - 1) % 3:
                raise InternalError("internal: -3 square forces p = 1 mod 3")
            ctx, pad = _TameField(p), ()
            sigmas = [(_embed_split(sigma, dp, p, sign, norm_one=True),)
                      for sign in (1, -1)]
        else:
            # T' is the field Q_p(sqrt(-3)), and sqrt(-3D) = t sqrt(-3)
            ctx, pad = _TameField.quadratic(p, -3), (0,)
            xs, ys = _coords(sigma, dp)
            t = sqrt_padic(Fraction(dp, -3), p)
            sigmas = [(xs, sign * ys * t) for sign in (1, -1)]
        taus = [(_embed_split(tau, d, p, sign),) + pad for sign in (1, -1)]
        s1, s2 = (ctx.symbol(x, y, 3) for x, y in zip(sigmas, taus))
        return s1 * s2.inverse()
    if s3D:
        # T field, T' splits: one symbol on the inert field Q_p(sqrt(d))
        u = _embed_split(sigma, dp, p, 1, norm_one=True)
        return _TameField.quadratic(p, d).symbol((u, 0), _coords(tau, d), 3)
    xs, ys = _coords(sigma, dp)
    xt, yt = _coords(tau, d)
    # exact relation: dp * g^2 = -3 d, g rational, so
    # sqrt(dp) = sqrt(-3) sqrt(d) / g
    g = _frac_sqrt(Fraction(-3 * d, dp))
    if g is None:
        raise InternalError("internal: twist classes inconsistent")
    if s3:
        # sqrt(-3) is rational p-adically: one symbol on Q_p(sqrt(d))
        r3 = sqrt_padic(Fraction(-3), p)
        return _TameField.quadratic(p, d).symbol((xs, ys * r3 / g),
                                                 (xt, yt), 3)
    # E = Q_p(sqrt(-3), sqrt(d)): sqrt(-3) inert, d ramified
    return _TameField(p, u=-3, r=d).symbol((xs, 0, 0, ys / g),
                                           (xt, 0, yt, 0), 3)


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
            ctx = _TameField.quadratic(p, m)
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
