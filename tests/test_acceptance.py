"""End-to-end acceptance suite.

Each test pins one of the package-level acceptance targets: worked-example
reproduction with exact expected values, randomized property suites against
independent oracles, and the stated runtime budgets.  Expected values are
frozen from independent derivations (closed-form algebra, Frobenius
factorization statistics, brute-force enumeration) noted inline.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import mpmath as mp
import pytest

from coclass.corpus import SUITES, random_lemma53_instance
from coclass.etalealg import (
    EtaleAlgebra,
    frobenius_cycle_types,
    galois_group,
    mirror_quartic,
)
from coclass.exactpoly import (
    RationalPoly,
    has_root_in_extension,
    is_squarefree,
    numeric_roots,
)
from coclass.groupcoh import FiniteGModule, cohomology, h1_via_hol, lemma53_check
from coclass.kummerh1 import (
    CoclassC4,
    QuadElem,
    c3_add,
    c3_encode,
    c4_decode,
    c4_encode,
)
from coclass.localsym import (
    LocalFieldDesc,
    Place,
    conic_has_point,
    cube_classes,
    enumerate_h1_local,
    hilbert2,
    square_classes,
    tate_pair_c3,
    tate_pair_v4,
)
from coclass.permstruct import (
    FiniteAbelian,
    PermGroup,
    count_g_structures,
)
from helpers import holomorph_group, same_group


def P(coeffs):
    return RationalPoly([F(c) for c in coeffs])


X4_D4 = P([7, 0, -6, 0, 1])        # x^4 - 6x^2 + 7
MIRROR = P([8, 0, -12, 0, 1])      # x^4 - 12x^2 + 8 = minpoly(sqrt(6+2*sqrt 7))
R3 = EtaleAlgebra.from_text("0,1|0,1|0,1")


# ---------------------------------------------------------------------------
# 1. mirror-field reproduction
# ---------------------------------------------------------------------------

def test_acceptance_1_mirror_field():
    t0 = time.perf_counter()
    M = mirror_quartic(X4_D4)
    assert len(M.factors) == 1
    g = M.factors[0]
    # isomorphic to Q[sqrt(6+2*sqrt 7)], checked in both directions
    assert has_root_in_extension(MIRROR, g)
    assert has_root_in_extension(g, MIRROR)
    # shared degree-8 closure Q(sqrt(3+sqrt 2), sqrt 7): the original field
    # contains sqrt 2 but not sqrt 7, the mirror contains sqrt 7 but not
    # sqrt 2, and the discriminant classes supply the complementary
    # quadratic subfields of the closure
    assert has_root_in_extension(P([-2, 0, 1]), X4_D4)
    assert not has_root_in_extension(P([-7, 0, 1]), X4_D4)
    assert has_root_in_extension(P([-7, 0, 1]), g)
    assert not has_root_in_extension(P([-2, 0, 1]), g)
    assert EtaleAlgebra.from_poly(X4_D4).discriminant_class().rep == 7
    assert M.discriminant_class().rep == 2
    assert time.perf_counter() - t0 < 2.0


# ---------------------------------------------------------------------------
# 2. C4 codec worked example
# ---------------------------------------------------------------------------

def test_acceptance_2_c4_codec():
    t0 = time.perf_counter()
    cc = CoclassC4(14, F(-5, 4), F(1, 2), F(3, 2))
    L = c4_encode(cc)
    assert L == EtaleAlgebra.from_poly(X4_D4)          # exact equality
    back = c4_decode(L)
    assert (back.D, back.a, back.c) == (cc.D, cc.a, cc.c)
    assert abs(back.b) == abs(cc.b)                    # b-sign ambiguity
    # the special datum (-4, 2) encodes to the split algebra K[sqrt D]^2
    for D in (2, 3, 5, 14):
        split = c4_encode(CoclassC4(D, F(-4), F(0), F(2)))
        quad = P([-D, 0, 1])
        assert split == EtaleAlgebra([quad, quad])
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. codec round-trip suites
# ---------------------------------------------------------------------------

def test_acceptance_3_roundtrips():
    t0 = time.perf_counter()
    for name in ("roundtrip-c3", "roundtrip-v4", "roundtrip-c4"):
        cases, passed = SUITES[name](random.Random(2026))
        assert cases == 50 and passed == 50, (name, cases, passed)
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 4. resolvent invariants
# ---------------------------------------------------------------------------

def test_acceptance_4_resolvent_invariants():
    # 100 quadratic-resolvent cases, 50 cubic-resolvent cases, 100 random
    # quartic/resolvent discriminant-class agreements
    cases, passed = SUITES["resolvents"](random.Random(4))
    assert cases == 250 and passed == 250


# ---------------------------------------------------------------------------
# 5. C3 group law via tensor roots
# ---------------------------------------------------------------------------

def _embed(e: QuadElem):
    return (mp.mpf(e.x.numerator) / mp.mpf(e.x.denominator)
            + mp.mpf(e.y.numerator) / mp.mpf(e.y.denominator)
            * mp.sqrt(mp.mpc(e.d)))


def test_acceptance_5_c3_group_law_tensor_roots():
    from coclass.corpus import _random_c3

    rng = random.Random(3)
    tol = mp.mpf(2) ** -64
    done = 0
    with mp.workprec(300):
        zeta = mp.exp(2j * mp.pi / 3)
        while done < 25:
            a, b = _random_c3(rng), _random_c3(rng)
            if a.D != b.D:
                continue
            done += 1
            L = c3_encode(c3_add(a, b))
            f = L.factors[0]
            for fac in L.factors[1:]:
                f = f * fac
            u = mp.power(_embed(a.delta), mp.mpf(1) / 3)
            v = mp.power(_embed(b.delta), mp.mpf(1) / 3)
            prods = [u * zeta ** i * v * zeta ** j
                     for i in range(3) for j in range(3)]
            cands = [w + 1 / w for w in prods]
            for ball in numeric_roots(f, precision_bits=128):
                assert min(abs(ball.mid - w) for w in cands) <= tol


# ---------------------------------------------------------------------------
# 6. Hilbert symbol vs conic oracle
# ---------------------------------------------------------------------------

def test_acceptance_6_hilbert_vs_conic():
    t0 = time.perf_counter()
    for p in (2, 3, 5, 7, 13, 0):
        place = Place(p)
        reps = [c.rep for c in square_classes(place)]
        assert len(reps) == {0: 2, 2: 8}.get(p, 4)
        for a, b in itertools.product(reps, repeat=2):
            assert (hilbert2(a, b, place).is_trivial()
                    == conic_has_point(a, b, place)), (p, a, b)
    # product formula over all places
    rng = random.Random(6)
    for _ in range(50):
        a = F(rng.randint(1, 60), rng.randint(1, 60)) * rng.choice([1, -1])
        b = F(rng.randint(1, 60), rng.randint(1, 60)) * rng.choice([1, -1])
        support = {2}
        for q in (a.numerator, a.denominator, b.numerator, b.denominator):
            d, q = 2, abs(q)
            while d * d <= q:
                while q % d == 0:
                    support.add(d)
                    q //= d
                d += 1
            if q > 1:
                support.add(q)
        total = hilbert2(a, b, Place(0))
        for q in sorted(support):
            total = total * hilbert2(a, b, Place(q))
        assert total.is_trivial(), (a, b)
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 7. Tate pairing desk checks
# ---------------------------------------------------------------------------

def test_acceptance_7_tate_m3_p7():
    reps = [c.rep for c in cube_classes(LocalFieldDesc(7))]
    assert len(reps) == 9
    M = [[tate_pair_c3(7, 1, u, w).k for w in reps] for u in reps]
    # nondegenerate: distinct rows and columns, identity row trivial
    assert len(set(map(tuple, M))) == 9
    assert len(set(zip(*M))) == 9
    assert M[0] == [0] * 9
    # bilinear in both slots
    rng = random.Random(7)
    for _ in range(25):
        u1, u2, w = (rng.choice(reps) for _ in range(3))
        assert tate_pair_c3(7, 1, u1 * u2, w) == \
            tate_pair_c3(7, 1, u1, w) * tate_pair_c3(7, 1, u2, w)
        assert tate_pair_c3(7, 1, u1, u2 * w) == \
            tate_pair_c3(7, 1, u1, u2) * tate_pair_c3(7, 1, u1, w)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_acceptance_7_tate_v4_split(p):
    triples = enumerate_h1_local("v4", p)
    assert len(triples) == 16
    M = [[tate_pair_v4(p, R3, s, t).k for t in triples] for s in triples]
    assert len(set(map(tuple, M))) == 16
    assert len(set(zip(*M))) == 16
    rng = random.Random(p)
    for _ in range(10):
        s1, s2, t = (rng.choice(triples) for _ in range(3))
        prod = tuple(x * y for x, y in zip(s1, s2))
        assert tate_pair_v4(p, R3, prod, t).k == \
            (tate_pair_v4(p, R3, s1, t).k + tate_pair_v4(p, R3, s2, t).k) % 2
        # well-defined on representatives: rescale componentwise by squares
        sq = tuple(x * rng.choice([1, 4, 9, F(1, 4)]) for x in s1)
        assert tate_pair_v4(p, R3, sq, t) == tate_pair_v4(p, R3, s1, t)


# ---------------------------------------------------------------------------
# 8. H^1 finite-level bijections
# ---------------------------------------------------------------------------

def _c2_trivial():
    C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])
    return FiniteGModule.trivial(C2, FiniteAbelian([2]))


def _s3_c3_sign():
    S3 = PermGroup.symmetric(3)
    M3 = FiniteAbelian([3])
    neg = {(0,): (0,), (1,): (2,), (2,): (1,)}
    ident = {m: m for m in M3.elements}
    act = {g: (neg if sum(l - 1 for l in g.cycle_type()) % 2 else ident)
           for g in S3.elements}
    return FiniteGModule(S3, M3, act)


def _s3_on_v4():
    S3 = PermGroup.symmetric(3)
    M = FiniteAbelian([2, 2])
    nz = [(1, 0), (0, 1), (1, 1)]
    act = {}
    for g in S3.elements:
        phi = {(0, 0): (0, 0)}
        for i, m in enumerate(nz):
            phi[m] = nz[g(i)]
        act[g] = phi
    return FiniteGModule(S3, M, act)


def _c2_c4_inversion():
    C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])
    M4 = FiniteAbelian([4])
    neg = {(x,): ((-x) % 4,) for x in range(4)}
    ident = {m: m for m in M4.elements}
    act = {g: (neg if g.cycle_type() == (2,) else ident)
           for g in C2.elements}
    return FiniteGModule(C2, M4, act)


def _brute_h1_order(gm: FiniteGModule) -> int:
    """Independent oracle: enumerate all cocycles z: G -> M with
    z(gh) = z(g) + g.z(h) and quotient by the coboundaries g -> g.m - m."""
    G, M = gm.elements, gm.module
    cocycles = set()
    for images in itertools.product(M.elements, repeat=len(G)):
        z = dict(zip(G, images))
        if all(z[g * h] == M.add(z[g], gm.action[g][z[h]])
               for g in G for h in G):
            cocycles.add(tuple(z[g] for g in G))
    coboundaries = {tuple(M.add(gm.action[g][m], M.neg(m)) for g in G)
                    for m in M.elements}
    assert len(cocycles) % len(coboundaries) == 0
    return len(cocycles) // len(coboundaries)


@pytest.mark.parametrize("make,expected", [
    (_c2_trivial, 2),        # Hom(C2, Z/2)
    (_s3_c3_sign, 3),
    (_s3_on_v4, 1),
    (_c2_c4_inversion, 2),
])
def test_acceptance_8_h1_bijections(make, expected):
    gm = make()
    h = cohomology(gm, 1)
    classes, bijection = h1_via_hol(gm)
    assert h.order == expected == _brute_h1_order(gm)
    assert len(classes) == h.order
    # explicit matched bijection: every Hol-class maps to a distinct H^1 rep
    assert len(bijection) == len(classes)


# ---------------------------------------------------------------------------
# 9. Lemma-style corestriction identity
# ---------------------------------------------------------------------------

def test_acceptance_9_cor_res_identity():
    rng = random.Random(9)
    for _ in range(100):
        X, Y, H, f, n = random_lemma53_instance(rng)
        ok, bad = lemma53_check(X, Y, H, f, n)
        assert ok, bad


# ---------------------------------------------------------------------------
# 10. Galois-group identification
# ---------------------------------------------------------------------------

def _frobenius_tag(f: RationalPoly) -> str:
    """Independent oracle: classify an irreducible quartic by the observed
    Frobenius cycle types (sampled factorization shapes mod p)."""
    types = frobenius_cycle_types(f, 120)
    if (3, 1) in types:
        return "S4" if ((4,) in types or (2, 1, 1) in types) else "A4"
    if (4,) in types:
        return "D4" if (2, 1, 1) in types else "C4"
    return "V4"


# expected tags independently derived: biquadratics x^4+px^2+q via the
# classical criterion (q square -> V4; q(p^2-4q) square -> C4; else D4),
# x^4+qx+r via the resolvent cubic y^3-4ry-q^2 and the discriminant square
# test, A4 entries are x^4+8x+12 (square discriminant 576^2, reducible
# resolvent is impossible) and its x -> x+-1 translates
CURATED = [
    ([1, 1, 1, 1, 1], "C4"), ([1, -1, 1, -1, 1], "C4"),
    ([2, 0, 4, 0, 1], "C4"), ([20, 0, -10, 0, 1], "C4"),
    ([5, 0, 5, 0, 1], "C4"),
    ([1, 0, 0, 0, 1], "V4"), ([1, 0, -10, 0, 1], "V4"),
    ([1, 0, -4, 0, 1], "V4"), ([4, 0, -16, 0, 1], "V4"),
    ([4, 0, 6, 0, 1], "V4"), ([4, 0, -6, 0, 1], "V4"),
    ([7, 0, -6, 0, 1], "D4"), ([-2, 0, 0, 0, 1], "D4"),
    ([2, 0, 0, 0, 1], "D4"), ([-3, 0, 0, 0, 1], "D4"),
    ([3, 0, 3, 0, 1], "D4"), ([-5, 0, 0, 0, 1], "D4"),
    ([3, 3, 0, 0, 1], "D4"),
    ([1, 1, 0, 0, 1], "S4"), ([-1, -1, 0, 0, 1], "S4"),
    ([2, 2, 0, 0, 1], "S4"), ([2, -4, 0, 0, 1], "S4"),
    ([12, 8, 0, 0, 1], "A4"),
    ([21, 12, 6, 4, 1], "A4"), ([5, 4, 6, -4, 1], "A4"),
]


def test_acceptance_10_galois_tags_curated():
    assert len(CURATED) == 25
    for coeffs, tag in CURATED:
        f = P(coeffs)
        L = EtaleAlgebra.from_poly(f)
        assert galois_group(L) == tag, coeffs
        assert _frobenius_tag(f) == tag, coeffs


def test_acceptance_10_galois_tags_random():
    rng = random.Random(10)
    done = 0
    while done < 100:
        f = P([rng.randint(-9, 9) for _ in range(4)] + [1])
        if not is_squarefree(f):
            continue
        L = EtaleAlgebra.from_poly(f)
        if len(L.factors) != 1:
            continue
        done += 1
        assert galois_group(L) == _frobenius_tag(f), f


# ---------------------------------------------------------------------------
# 11. structure counts and holomorphs
# ---------------------------------------------------------------------------

def test_acceptance_11_structure_counts():
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    trivial = PermGroup.from_cycle_strings(4, [])
    S4 = PermGroup.symmetric(4)
    assert count_g_structures(C4, C4) == 2
    assert count_g_structures(trivial, C4) == 6
    assert count_g_structures(S4, S4) == 1


ABELIAN_UPTO_8 = [
    [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2]]


def test_acceptance_11_holomorph_sizes():
    # |Hol M| = |M| * |Aut M|
    expected = {(2,): 2, (3,): 6, (4,): 8, (2, 2): 24, (5,): 20,
                (6,): 12, (7,): 42, (8,): 32, (2, 4): 64, (2, 2, 2): 1344}
    for orders in ABELIAN_UPTO_8:
        M = FiniteAbelian(orders)
        assert M.order * M.aut_order() == expected[tuple(orders)], orders
        assert holomorph_group(M).order == expected[tuple(orders)], orders


def test_acceptance_11_holomorph_equals_sym_list():
    # exhaustively over abelian M with 2 <= |M| <= 8: Hol M = Sym M exactly
    # for C2, C3, and C2 x C2 (plus the trivial group)
    sym_cases = []
    for orders in ABELIAN_UPTO_8:
        M = FiniteAbelian(orders)
        is_sym = M.order * M.aut_order() == math.factorial(M.order)
        hol = holomorph_group(M)
        assert same_group(hol, PermGroup.symmetric(hol.n)) == is_sym, orders
        if is_sym:
            sym_cases.append(tuple(orders))
    assert sym_cases == [(2,), (3,), (2, 2)]
