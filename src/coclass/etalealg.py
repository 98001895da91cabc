"""Etale algebras over Q of degree <= 4 (plus degree <= 8 closures):
factor structure, discriminant square classes, quadratic/cubic resolvents,
Galois-group tags, H^0 counting, mirror quartics, and torsor closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import UnsupportedSize
from .exactpoly import (
    RationalPoly,
    compositum_factors,
    discriminant,
    extension_automorphisms,
    factor_rationals,
    fields_isomorphic,
    is_squarefree,
)
from .exactpoly import modp
from .permstruct import Perm, PermGroup


class EtaleError(ValueError):
    pass


class UnsupportedStructure(EtaleError):
    pass


# ---------------------------------------------------------------------------
# square classes
# ---------------------------------------------------------------------------

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
        if not is_squarefree(f):
            raise EtaleError("not etale: repeated factor")
        return EtaleAlgebra([h for h, _ in factor_rationals(f)])

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
                m = squarefree_part(discriminant(f))
                out.append(RationalPoly([-m, 0, 1]))
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


def cubic_resolvent_poly(f: RationalPoly) -> RationalPoly:
    """Classical resolvent x^3 - p x^2 - 4 r x + (4 p r - q^2) of the
    depressed form, with roots t1 t2 + t3 t4 etc."""
    p, q, r, _ = depress_quartic(f)
    return RationalPoly([4 * p * r - q * q, -4 * r, -p, 1])


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


def frobenius_cycle_types(f: RationalPoly, count: int = 25):
    """Cycle types of Frobenius at the first `count` primes p where f stays
    squarefree of full degree: the factor degrees of f mod p, read from
    distinct-degree factorization alone."""
    _, fz = f.monic().primitive_int()
    ints = [int(c) for c in fz.coeffs]
    return {tuple(reversed(modp.factor_degrees(pieces)))
            for _, pieces in islice(modp.reductions(ints), count)}


def _transitive_tag(f: RationalPoly) -> str:
    """Tag of an irreducible polynomial of degree <= 4.  A quartic
    whose resolvent has one rational root r is C4 or D4, and by Kappe &
    Warren (Amer. Math. Monthly 96, 1989) it is C4 iff r^2 - 4s and
    4(r - p) are each a square or disc times a square, for the depressed
    quartic x^4 + p x^2 + q x + s."""
    n = f.degree
    if n < 3:
        return f"C{n}"
    disc = discriminant(f)
    if n == 3:
        return "C3" if _frac_sqrt(disc) is not None else "S3"
    linear = [h for h, _ in factor_rationals(cubic_resolvent_poly(f))
              if h.degree == 1]
    if not linear:
        return "A4" if _frac_sqrt(disc) is not None else "S4"
    if len(linear) == 3:
        return "V4"
    r = -linear[0][0]
    p, _, s, _ = depress_quartic(f)
    return "C4" if all(_frac_sqrt(u) is not None
                       or _frac_sqrt(u / disc) is not None
                       for u in (r * r - 4 * s, 4 * (r - p))) else "D4"


def galois_group(L: EtaleAlgebra) -> str:
    """Galois tag; intransitive algebras get the '+'-joined factor tags.
    Each tag is checked against the Frobenius cycle types of its factor."""
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


def _aut_group_of_field(f: RationalPoly) -> PermGroup:
    """Automorphism group of Q[y]/(f) as a permutation group via its regular
    action (only meaningful when the field is Galois)."""
    auts = extension_automorphisms(f)
    index = {a.coeffs: i for i, a in enumerate(auts)}
    perms = []
    for a in auts:
        images = []
        for b in auts:
            comp = (a.compose(b)) % f
            images.append(index[comp.coeffs])
        perms.append(Perm(tuple(images)))
    return PermGroup(len(auts), perms)


def _subgroups_of_order(G: PermGroup, d: int):
    els = sorted(G.elements)
    seen = set()
    out = []
    for a in els:
        for b in els:
            H = PermGroup(G.n, [a, b])
            key = H.elements
            if key in seen:
                continue
            seen.add(key)
            if H.order == d:
                out.append(H)
    return out


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
    from .permstruct import _isomorphisms
    A = _aut_group_of_field(first)
    if A.order != d:
        return False  # factor field not Galois
    return any(next(_isomorphisms(A, H), None) is not None
               for H in _subgroups_of_order(G, d))
