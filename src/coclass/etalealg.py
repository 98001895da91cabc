"""Etale algebras over Q of degree <= 4 (plus degree <= 8 closures):
factor structure, discriminant square classes, quadratic/cubic resolvents,
Galois-group tags, H^0 counting, mirror quartics, and torsor closures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import Unsupported, permstruct
from .exactpoly import (
    RationalPoly,
    compositum_factors,
    discriminant,
    factor_rationals,
    fields_isomorphic,
    is_squarefree,
)
from .exactpoly import modp
from .exactpoly.extension import _root_factors
from .permstruct import Perm, PermGroup
from .quadratic import EtaleError, SquareClass, _frac_sqrt, quadratic_class


class UnsupportedStructure(EtaleError, Unsupported):
    pass


# ---------------------------------------------------------------------------
# etale algebras
# ---------------------------------------------------------------------------

class EtaleAlgebra:
    """A finite product of number fields, stored as the sorted multiset of
    monic irreducible defining polynomials."""

    def __init__(self, factors):
        fs = sorted((f.monic() for f in factors),
                    key=lambda h: (h.degree, h.coeffs))
        for f in fs:
            if f.degree < 1:
                raise EtaleError("factors must have degree >= 1")
        self.factors = tuple(fs)
        self.degree = sum(f.degree for f in fs)
        if self.degree > 8:
            raise UnsupportedStructure("degree > 8 not supported")

    @staticmethod
    def from_poly(f: RationalPoly) -> "EtaleAlgebra":
        if f.degree < 1:
            raise EtaleError("need degree >= 1")
        factors = factor_rationals(f)
        if any(m > 1 for _, m in factors):
            raise EtaleError("not etale: repeated factor")
        return EtaleAlgebra([h for h, _ in factors])

    @staticmethod
    def from_text(text: str) -> "EtaleAlgebra":
        parts = [p for p in text.split("|") if p.strip()]
        out = []
        for p in parts:
            f = RationalPoly.from_text(p).monic()
            for h, m in factor_rationals(f):
                out.extend([h] * m)
        alg = EtaleAlgebra(out)
        # factors must jointly define an etale algebra componentwise, but
        # repeated factors are allowed (e.g. Q x Q given as "0,1|0,1")
        return alg

    def to_text(self) -> str:
        return "|".join(f.to_text() for f in self.factors)

    def defining_poly(self) -> RationalPoly:
        out = RationalPoly([1])
        for f in self.factors:
            out = out * f
        return out

    def discriminant_class(self) -> SquareClass:
        out = Fraction(1)
        for f in self.factors:
            d = discriminant(f) if f.degree > 1 else Fraction(1)
            out *= d
        return SquareClass.of(out) if out else SquareClass(1)

    def h0_count(self) -> int:
        return sum(1 for f in self.factors if f.degree == 1)

    def canonical(self) -> "EtaleAlgebra":
        """Normal form: linear factors -> x; quadratic factors -> x^2 - m
        with m the squarefree discriminant-class representative."""
        out = []
        for f in self.factors:
            if f.degree == 1:
                out.append(RationalPoly([0, 1]))
            elif f.degree == 2:
                out.append(RationalPoly([-quadratic_class(f), 0, 1]))
            else:
                out.append(f)
        return EtaleAlgebra(out)

    def isomorphic(self, other: "EtaleAlgebra") -> bool:
        """Multiset match of field factors via mutual root tests."""
        if self.degree != other.degree or len(self.factors) != len(other.factors):
            return False
        mine = list(self.factors)
        theirs = list(other.factors)
        for f in mine:
            hit = None
            for i, g in enumerate(theirs):
                if f.degree == g.degree and fields_isomorphic(f, g):
                    hit = i
                    break
            if hit is None:
                return False
            theirs.pop(hit)
        return True

    def __eq__(self, other):
        return isinstance(other, EtaleAlgebra) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"EtaleAlgebra({self.to_text()!r})"


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------

def quadratic_resolvent(L: EtaleAlgebra) -> SquareClass:
    """Square class of the discriminant; trivial iff the Galois image lies
    in the alternating group."""
    if L.degree < 2:
        raise EtaleError("need degree >= 2")
    return L.discriminant_class()


def depress_quartic(f: RationalPoly):
    """Shift a monic quartic to x^4 + p x^2 + q x + r; returns (p, q, r,
    shift) with f(x + shift) depressed."""
    if f.degree != 4:
        raise EtaleError("need a quartic")
    f = f.monic()
    shift = -f[3] / 4
    g = f.shift(shift)
    return g[2], g[1], g[0], shift


def _resolvent_of_depressed(p, q, r) -> RationalPoly:
    """Classical resolvent x^3 - p x^2 - 4 r x + (4 p r - q^2) of the
    depressed quartic x^4 + p x^2 + q x + r, with roots t1 t2 + t3 t4 etc."""
    return RationalPoly([4 * p * r - q * q, -4 * r, -p, 1])


def cubic_resolvent_poly(f: RationalPoly) -> RationalPoly:
    """The classical cubic resolvent of the depressed form of f."""
    return _resolvent_of_depressed(*depress_quartic(f)[:3])


def cubic_resolvent(f: RationalPoly) -> EtaleAlgebra:
    if f.degree != 4:
        raise EtaleError("need a quartic")
    if not is_squarefree(f):
        raise EtaleError("not etale: repeated factor")
    return EtaleAlgebra.from_poly(cubic_resolvent_poly(f))


# ---------------------------------------------------------------------------
# Galois tags
# ---------------------------------------------------------------------------

_ALLOWED_TYPES = {
    "C4": {(1, 1, 1, 1), (2, 2), (4,)},
    "V4": {(1, 1, 1, 1), (2, 2)},
    "D4": {(1, 1, 1, 1), (2, 2), (4,), (2, 1, 1)},
    "A4": {(1, 1, 1, 1), (3, 1), (2, 2)},
    "S4": {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)},
    "C3": {(1, 1, 1), (3,)},
    "S3": {(1, 1, 1), (3,), (2, 1)},
    "C2": {(1, 1), (2,)},
    "C1": {(1,)},
}


@lru_cache(maxsize=8)
def _integer_model(f: RationalPoly):
    """(c, fz, disc fz) with f = c fz, fz the primitive integer model of f.
    The tag and the Frobenius cross-check of `galois_group` both read the
    discriminant of each factor in turn, so keeping the last few answers
    computes it once per factor."""
    c, fz = f.primitive_int()
    return c, fz, discriminant(fz)


def frobenius_cycle_types(f: RationalPoly, count: int = 25):
    """Cycle types of Frobenius at the first `count` odd primes p where the
    primitive integer model of f, of degree n <= 4, stays squarefree of full
    degree: the factor degrees of f mod p, from no factoring.  The r roots
    of f mod p leave n - r degrees in factors of degree >= 2, which fixes
    the type except for n - r = 4: (4) or (2,2).  By Stickelberger's theorem
    (R. G. Swan, Pacific J. Math. 12, 1962) the k factors of f mod p have
    n - k even iff disc f is a square mod p: (2,2) when it is, (4) when it
    is not."""
    n = f.degree
    if n > 4:
        raise UnsupportedStructure("cycle types implemented for degree <= 4")
    _, fz, disc = _integer_model(f)
    disc = int(disc)
    types = set()
    for p, r in modp.root_counts([int(c) for c in fz.coeffs], disc, count):
        if r == 0 and n == 4:
            types.add((2, 2) if pow(disc, (p - 1) // 2, p) == 1 else (4,))
        else:
            types.add(((n - r,) if r < n else ()) + (1,) * r)
    return types


def _transitive_tag(f: RationalPoly) -> str:
    """Tag of an irreducible polynomial of degree <= 4.  A quartic
    whose resolvent has one rational root r is C4 or D4, and by Kappe &
    Warren (Amer. Math. Monthly 96, 1989) it is C4 iff r^2 - 4s and
    4(r - p) are each a square or disc times a square, for the depressed
    quartic x^4 + p x^2 + q x + s."""
    n = f.degree
    if n < 3:
        return f"C{n}"
    c, _, disc = _integer_model(f)
    disc *= c ** (2 * n - 2)
    if n == 3:
        return "C3" if _frac_sqrt(disc) is not None else "S3"
    p, q, s, _ = depress_quartic(f)
    linear = [h for h, _ in factor_rationals(_resolvent_of_depressed(p, q, s))
              if h.degree == 1]
    if not linear:
        return "A4" if _frac_sqrt(disc) is not None else "S4"
    if len(linear) == 3:
        return "V4"
    r = -linear[0][0]
    return "C4" if all(_frac_sqrt(u) is not None
                       or _frac_sqrt(u / disc) is not None
                       for u in (r * r - 4 * s, 4 * (r - p))) else "D4"


def galois_group(L: EtaleAlgebra) -> str:
    """Galois tag; intransitive algebras get the '+'-joined factor tags.
    Each tag is checked against the Frobenius cycle types of its factor;
    both read one discriminant (`_integer_model`)."""
    if L.degree > 4:
        raise UnsupportedStructure("tags implemented for degree <= 4")
    tags = []
    for f in L.factors:
        tag = _transitive_tag(f)
        if f.degree >= 2:
            observed = frobenius_cycle_types(f)
            if not observed <= _ALLOWED_TYPES[tag]:
                raise EtaleError(
                    f"cycle-type cross-check failed for tag {tag}")
        tags.append(tag)
    return "+".join(sorted(tags, reverse=True))


# ---------------------------------------------------------------------------
# mirror quartics
# ---------------------------------------------------------------------------

def mirror_quartic(L) -> EtaleAlgebra:
    """Mirror algebra: translate the C4-module Kummer datum by the special
    datum (-4, 2).  Input may be a quartic RationalPoly or EtaleAlgebra."""
    from . import kummerh1

    if isinstance(L, RationalPoly):
        L = EtaleAlgebra.from_poly(L)
    datum = kummerh1.c4_decode(L)
    special = kummerh1.CoclassC4(datum.D, Fraction(-4), Fraction(0),
                                 Fraction(2))
    return kummerh1.c4_encode(kummerh1.c4_add(datum, special))


# ---------------------------------------------------------------------------
# torsor closures and G-torsor tests
# ---------------------------------------------------------------------------

def torsor_closure(L: EtaleAlgebra) -> EtaleAlgebra:
    """E = L (x) T with T the Hol-module quadratic twist: degree 2 -> L
    itself (Hol C2 = C2); degree 3 -> the S3-closure L (x) Q[sqrt(disc)]."""
    if L.degree == 2:
        return L
    if L.degree != 3:
        raise UnsupportedStructure("closures implemented for degrees 2 and 3")
    D = quadratic_resolvent(L)
    if D.is_trivial():
        return EtaleAlgebra(list(L.factors) + list(L.factors))
    T = RationalPoly([-D.rep, 0, 1])
    out = []
    for f in L.factors:
        if f.degree == 1:
            out.append(T)
        else:
            out.extend(compositum_factors(f, T))
    return EtaleAlgebra(out)


def _aut_group_of_field(f: RationalPoly, auts) -> PermGroup:
    """The Galois group of the Galois field Q[y]/(f), from its automorphisms
    auts as reduced polynomials, as a permutation group via its regular
    action."""
    index = {a.coeffs: i for i, a in enumerate(auts)}
    perms = []
    for a in auts:
        images = []
        for b in auts:
            comp = (a.compose(b)) % f
            images.append(index[comp.coeffs])
        perms.append(Perm(tuple(images)))
    return PermGroup(len(auts), perms)


def is_g_torsor(L: EtaleAlgebra, G: PermGroup) -> bool:
    """True iff L is a torsor under the constant group G: all field factors
    isomorphic to one Galois field F with Gal(F) embedding into G and
    [G : Gal(F)] = number of factors."""
    if G.order != L.degree:
        return False
    if L.degree > 6:
        raise UnsupportedStructure("torsor test implemented for degree <= 6")
    first = L.factors[0]
    for f in L.factors[1:]:
        if f.degree != first.degree or not fields_isomorphic(f, first):
            return False
    d = first.degree
    if d == 1:
        return True
    found = list(_root_factors(first, first))
    if len(found) != d:
        return False  # factor field not Galois
    A = _aut_group_of_field(first, [root() for _, _, root in found])
    return next(permstruct._embeddings(A, G), None) is not None
