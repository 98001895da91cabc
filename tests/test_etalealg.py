"""Tests for coclass.etalealg.

Galois tags are cross-checked against an independent Frobenius cycle-type
sampler; resolvent and closure values are frozen from exact computation
verified by root-in-extension oracles.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from coclass import UnsupportedSize, etalealg
from coclass.etalealg import (
    EtaleAlgebra,
    EtaleError,
    SquareClass,
    UnsupportedStructure,
    cubic_resolvent,
    cubic_resolvent_poly,
    depress_quartic,
    frobenius_cycle_types,
    galois_group,
    is_g_torsor,
    mirror_quartic,
    quadratic_resolvent,
    squarefree_part,
    _transitive_tag,
    torsor_closure,
)
from coclass.exactpoly import (
    RationalPoly,
    discriminant,
    fields_isomorphic,
    has_root_in_extension,
    is_irreducible,
)
from helpers import transitive_tag_by_norm
from coclass import permstruct
from coclass.permstruct import PermGroup

P = RationalPoly


# ---------------------------------------------------------------------------
# square classes
# ---------------------------------------------------------------------------

def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(Fraction(-8, 9)) == -2
    assert squarefree_part(Fraction(1, 2)) == 2  # 1/2 ~ 2
    assert squarefree_part(49) == 1
    with pytest.raises(EtaleError):
        squarefree_part(0)


def _squarefree_part_by_trial_division(n):
    n, out, d = abs(n), 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out, n = out * d, n // d
        d += 1
    return out * n


def test_squarefree_part_past_the_trial_bound():
    # cofactors with no prime factor below the bound B: below B^3 they are
    # p, p*q or p^2 and stay exact; past it, exit 3 rather than a long scan
    p, q = 1048583, 1048589  # the first primes past B = 2^20
    assert etalealg.TRIAL_BOUND < p < q
    for n, part in [(p, p), (p * q, p * q), (p * p, 1), (12 * p * p, 3),
                    (-8 * p * q, -2 * p * q), (18 * p, 2 * p), (35 * q * q, 35),
                    (Fraction(p * q, 4 * p), q)]:
        assert squarefree_part(n) == part, n
    rng = random.Random(15)
    for n in [rng.randint(1, 10 ** 6) * rng.choice((1, -1)) for _ in range(400)]:
        assert squarefree_part(n) == (1 if n > 0 else -1) * _squarefree_part_by_trial_division(n), n
    start = time.perf_counter()
    with pytest.raises(UnsupportedSize):
        squarefree_part(7 * p * p * q)
    assert time.perf_counter() - start < 1


def test_square_class_group():
    assert SquareClass.of(18) == SquareClass(2)
    assert SquareClass(2) * SquareClass(6) == SquareClass(3)
    assert (SquareClass(-3) * SquareClass(-3)).is_trivial()
    with pytest.raises(EtaleError):
        SquareClass(4)


def test_square_class_of_takes_one_squarefree_part(monkeypatch):
    # the squarefree part is the representative, so `of` does not check it
    # again; direct construction still does
    calls = []
    part = etalealg.squarefree_part

    def spy(q):
        calls.append(q)
        return part(q)

    monkeypatch.setattr(etalealg, "squarefree_part", spy)
    p, q = 1048583, 1048589
    assert SquareClass.of(p * q).rep == p * q
    assert calls == [p * q]
    assert SquareClass(p * q) == SquareClass.of(p * q)
    with pytest.raises(EtaleError):
        SquareClass(p * p)


# ---------------------------------------------------------------------------
# algebra construction and text round trips
# ---------------------------------------------------------------------------

def test_from_poly_factors():
    L = EtaleAlgebra.from_poly(P([-1, 0, 1]) * P([-2, 0, 1]))
    assert [f.to_text() for f in L.factors] == ["-1,1", "1,1", "-2,0,1"]
    assert L.degree == 4
    assert L.h0_count() == 2


def test_from_poly_rejects_repeated_factor():
    with pytest.raises(EtaleError):
        EtaleAlgebra.from_poly(P([-1, 0, 1]) * P([-1, 0, 1]))


def test_text_round_trip():
    L = EtaleAlgebra.from_text("0,1|0,1|-2,0,1")
    assert L.degree == 4
    assert EtaleAlgebra.from_text(L.to_text()) == L


def test_canonical_form():
    L = EtaleAlgebra.from_poly(P([-8, 0, 1]) * P([5, 1]))
    assert L.canonical().to_text() == "0,1|-2,0,1"


def test_isomorphic_algebras():
    # Q[cbrt(2)] via two generators: 2^(1/3) and 4^(1/3)
    A = EtaleAlgebra.from_poly(P([-2, 0, 0, 1]))
    B = EtaleAlgebra.from_poly(P([-4, 0, 0, 1]))
    assert A.isomorphic(B)
    assert not A.isomorphic(EtaleAlgebra.from_poly(P([-3, 0, 0, 1])))


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------

def test_quadratic_resolvent_cubics():
    # [DERIVED] disc(x^3-2) = -108 ~ -3; disc(x^3-3x-1) = 81 ~ 1
    assert quadratic_resolvent(EtaleAlgebra.from_poly(P([-2, 0, 0, 1]))).rep == -3
    assert quadratic_resolvent(EtaleAlgebra.from_poly(P([-1, -3, 0, 1]))).rep == 1


def test_depress_quartic():
    p, q, r, shift = depress_quartic(P([1, 0, 0, -4, 1]))
    g = P([1, 0, 0, -4, 1]).shift(shift)
    assert g[3] == 0 and (g[2], g[1], g[0]) == (p, q, r)


def test_cubic_resolvent_splits_for_biquadratic():
    # [DERIVED] x^4-10x^2+1 (V4) has fully split resolvent
    R = cubic_resolvent(P([1, 0, -10, 0, 1]))
    assert all(f.degree == 1 for f in R.factors)


def test_cubic_resolvent_disc_class_matches_quartic():
    # disc of the quartic and of its resolvent lie in the same square class
    rng = random.Random(5)
    checked = 0
    while checked < 20:
        f = P([Fraction(rng.randint(-6, 6)) for _ in range(4)] + [1])
        from coclass.exactpoly import is_squarefree
        if f.degree != 4 or not is_squarefree(f):
            continue
        res = cubic_resolvent_poly(f)
        if not is_squarefree(res):
            continue
        assert squarefree_part(discriminant(f)) == \
            squarefree_part(discriminant(res))
        checked += 1


# ---------------------------------------------------------------------------
# Galois tags
# ---------------------------------------------------------------------------

CURATED = [
    # [DERIVED: resolvent analysis, cross-checked by Frobenius types]
    (P([1, 1, 1, 1, 1]), "C4"),          # Phi_5
    (P([1, 0, -10, 0, 1]), "V4"),        # Q(sqrt2, sqrt3)
    (P([1, 1, 0, 0, 1]), "S4"),
    (P([7, 0, -6, 0, 1]), "D4"),
    (P([12, 8, 0, 0, 1]), "A4"),
    (P([1, 0, 0, 0, 1]), "V4"),          # x^4+1
    (P([2, 0, 0, 0, 1]), "D4"),          # x^4+2
    (P([-1, -1, 0, 0, 1]), "S4"),
    (P([2, 0, -4, 0, 1]), "C4"),         # sqrt(2+sqrt2), cyclic
    (P([13, 0, -4, 0, 1]), "D4"),
    (P([-2, 0, 0, 1]), "S3"),
    (P([-1, -3, 0, 1]), "C3"),
    (P([1, 1, 1, 1]), "C2+C1"),          # (x+1)(x^2+1)
    (P([-2, 0, 1]), "C2"),
    (P([3, 1]), "C1"),
]


@pytest.mark.parametrize("f,tag", CURATED)
def test_galois_tags_curated(f, tag):
    assert galois_group(EtaleAlgebra.from_poly(f)) == tag


def test_frobenius_types_subset():
    # [DERIVED] C4 quartics never have a (2,1,1) Frobenius type
    types = frobenius_cycle_types(P([1, 1, 1, 1, 1]))
    assert (2, 1, 1) not in types
    assert (4,) in types
    # D4 quartics do
    types = frobenius_cycle_types(P([7, 0, -6, 0, 1]))
    assert (2, 1, 1) in types


def test_galois_tags_random_quartics():
    rng = random.Random(11)
    from coclass.exactpoly import is_squarefree
    done = 0
    while done < 15:
        f = P([Fraction(rng.randint(-5, 5)) for _ in range(4)] + [1])
        if f.degree != 4 or not is_squarefree(f):
            continue
        galois_group(EtaleAlgebra.from_poly(f))  # cross-check is internal
        done += 1


def _seeded_quartics():
    """Irreducible x^4 + p x^2 + q: over a grid, and the C4 ones of a wider
    grid (q(p^2 - 4q) a square, q not); the A4 quartic x^4 + 8x + 12; each
    also moved by a seeded x -> x + t so that it is not depressed; then
    seeded general quartics."""
    rng = random.Random(15)
    pq = [(p, q) for p in range(-6, 7) for q in range(-10, 11)]
    pq += [(p, q) for p in range(-40, 41) for q in range(21, 200)
           if math.isqrt(q) ** 2 != q and q * (p * p - 4 * q) > 0
           and math.isqrt(q * (p * p - 4 * q)) ** 2 == q * (p * p - 4 * q)]
    out = []
    for f in [P([q, 0, p, 0, 1]) for p, q in pq] + [P([12, 8, 0, 0, 1])]:
        if f[0] and is_irreducible(f):
            out += [f, f.shift(Fraction(rng.randint(-7, 7), rng.randint(1, 3)))]
    for _ in range(200):
        f = P([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)] + [1])
        if is_irreducible(f):
            out.append(f)
    return out


def test_kappe_warren_matches_norm_oracle():
    # C4 against D4 by the Kappe-Warren square tests, against whether
    # sqrt(disc) lies in the quartic field; square discriminants by isqrt
    # against their squarefree part
    tags = Counter()
    for f in _seeded_quartics():
        tag = _transitive_tag(f)
        assert tag == transitive_tag_by_norm(f), f
        tags[tag] += 1
    assert tags["C4"] >= 80 and tags["D4"] >= 300 and set(tags) == {"C4", "V4", "D4", "A4", "S4"}


def test_galois_group_takes_no_square_class(monkeypatch):
    def refuse(q):
        raise AssertionError("squarefree_part called")

    monkeypatch.setattr(etalealg, "squarefree_part", refuse)
    for f, tag in CURATED:
        assert galois_group(EtaleAlgebra.from_poly(f)) == tag


# ---------------------------------------------------------------------------
# mirror quartic
# ---------------------------------------------------------------------------

def test_mirror_paper_field():
    # [PAPER] the mirror of Q[sqrt(3+sqrt2)] is Q[sqrt(6+2sqrt7)]
    M = mirror_quartic(P([7, 0, -6, 0, 1]))
    assert len(M.factors) == 1
    assert fields_isomorphic(M.factors[0], P([8, 0, -12, 0, 1]))
    assert fields_isomorphic(P([8, 0, -12, 0, 1]), M.factors[0])


def test_mirror_involution():
    M = mirror_quartic(P([7, 0, -6, 0, 1]))
    MM = mirror_quartic(M)
    assert fields_isomorphic(MM.factors[0], P([7, 0, -6, 0, 1]))


def test_mirror_of_split_forms():
    # K[sqrt(D)] x K[sqrt(D)] has datum (-4, 2); translating by (-4, 2)
    # gives the datum (16, 4) ~ (1, 1), i.e. L0
    M = mirror_quartic(EtaleAlgebra.from_text("-2,0,1|-2,0,1"))
    assert M.canonical().to_text() == "0,1|0,1|-2,0,1"


# ---------------------------------------------------------------------------
# torsor closures and G-torsor tests
# ---------------------------------------------------------------------------

def test_closure_quadratic_is_self():
    L = EtaleAlgebra.from_poly(P([-2, 0, 1]))
    assert torsor_closure(L) == L


def test_closure_cyclic_cubic_doubles():
    L = EtaleAlgebra.from_poly(P([-1, -3, 0, 1]))
    E = torsor_closure(L)
    assert E.degree == 6 and len(E.factors) == 2
    assert all(f == L.factors[0] for f in E.factors)


def test_closure_s3_cubic():
    # [DERIVED] closure of Q(cbrt2) is its degree-6 Galois closure
    E = torsor_closure(EtaleAlgebra.from_poly(P([-2, 0, 0, 1])))
    assert E.degree == 6 and len(E.factors) == 1
    f = E.factors[0]
    assert has_root_in_extension(P([-2, 0, 0, 1]), f)
    assert has_root_in_extension(P([3, 0, 1]), f)  # contains sqrt(-3)


def test_closure_unsupported_degree():
    with pytest.raises(UnsupportedStructure):
        torsor_closure(EtaleAlgebra.from_poly(P([1, 1, 1, 1, 1])))


C3_GRP = PermGroup.from_cycle_strings(3, ["(0 1 2)"])
C4_GRP = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
V4_GRP = PermGroup.from_cycle_strings(4, ["(0 1)(2 3)", "(0 2)(1 3)"])


def test_is_g_torsor_cyclic_cubic():
    L = EtaleAlgebra.from_poly(P([-1, -3, 0, 1]))
    assert is_g_torsor(L, C3_GRP)
    assert is_g_torsor(EtaleAlgebra.from_text("0,1|0,1|0,1"), C3_GRP)
    # non-Galois cubic is no torsor
    assert not is_g_torsor(EtaleAlgebra.from_poly(P([-2, 0, 0, 1])), C3_GRP)


def test_is_g_torsor_stops_at_the_first_isomorphism(monkeypatch):
    # Aut V4 has 6 elements; one isomorphism settles the question
    pulled = []
    search = permstruct._isomorphisms

    def spy(A, B):
        for phi in search(A, B):
            pulled.append(phi)
            yield phi
    monkeypatch.setattr(permstruct, "_isomorphisms", spy)
    assert is_g_torsor(EtaleAlgebra.from_poly(P([1, 0, -10, 0, 1])), V4_GRP)
    assert len(pulled) == 1


def test_is_g_torsor_quartics():
    phi5 = EtaleAlgebra.from_poly(P([1, 1, 1, 1, 1]))
    assert is_g_torsor(phi5, C4_GRP)
    assert not is_g_torsor(phi5, V4_GRP)
    biq = EtaleAlgebra.from_poly(P([1, 0, -10, 0, 1]))
    assert is_g_torsor(biq, V4_GRP)
    assert not is_g_torsor(biq, C4_GRP)
    # F x F with F = Q[sqrt2]: torsor under both order-4 groups
    split = EtaleAlgebra.from_text("-2,0,1|-2,0,1")
    assert is_g_torsor(split, V4_GRP)
    assert is_g_torsor(split, C4_GRP)


def test_is_g_torsor_order_mismatch():
    # a torsor under G must have degree |G|
    L = EtaleAlgebra.from_text("0,1|0,1|0,1")
    assert not is_g_torsor(L, PermGroup.symmetric(3))  # |S3| = 6 != 3
