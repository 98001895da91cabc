"""Tests for coclass.exactpoly.

Expected values marked as derived were produced by independent oracles
(numeric Vandermonde products, hand Sylvester determinants, nested-radical
evaluation, a numeric root-matching oracle) and frozen here.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coclass import UnsupportedSize, etalealg
from coclass.etalealg import EtaleAlgebra, frobenius_cycle_types, torsor_closure
from coclass.exactpoly import (
    ExactPolyError,
    RationalPoly,
    charpoly,
    compositum_factors,
    discriminant,
    extension_automorphisms,
    factor_rationals,
    fields_isomorphic,
    gcd,
    has_root_in_extension,
    is_irreducible,
    is_squarefree,
    numeric_roots,
    real_roots,
    resultant,
    roots_in_extension,
    squarefree_decomposition,
    trager_norm,
)
from coclass.exactpoly import extension, factor, modp, poly
from coclass.exactpoly.extension import _squarefree_norm
from coclass.kummerh1 import CoclassV4, v4_encode
from coclass.quadratic import squarefree_part
from helpers import (
    ball_contains,
    balls_overlap,
    charpoly_by_resultants,
    factor_monic_int_by_zassenhaus,
    interpolate,
    resultant_by_euclid,
    roots_by_factoring,
    trager_norm_by_resultants,
    trager_roots_by_factoring,
)

P = RationalPoly.from_text
F = Fraction


# ---------------------------------------------------------------------------
# text round trip and arithmetic basics
# ---------------------------------------------------------------------------

def test_text_round_trip():
    f = P("-2,0,1")
    assert f.degree == 2
    assert f.coeffs == (F(-2), F(0), F(1))
    assert f.to_text() == "-2,0,1"
    g = P("1/2,-3/4,1")
    assert g.to_text() == "1/2,-3/4,1"


def test_arithmetic_identities():
    f = P("1,2,3")
    g = P("-1,0,0,5")
    q, r = (f * g + P("7")).divmod(g)
    assert q == f and r == P("7")
    assert (f * g).degree == f.degree + g.degree


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("D", [2, 3, -1, F(5, 7), 0])
def test_discriminant_quadratic(D):
    # disc(x^2 - D) = 4D
    f = RationalPoly([-D, 0, 1])
    assert discriminant(f) == 4 * F(D)


@pytest.mark.parametrize("t", [0, 2, -2, F(7, 4), F(-1, 3)])
def test_discriminant_depressed_cubic(t):
    # disc(x^3 - 3x - t) = 27(4 - t^2); oracle: -4p^3 - 27q^2 and a
    # numeric Vandermonde check below
    f = RationalPoly([-F(t), -3, 0, 1])
    assert discriminant(f) == 27 * (4 - F(t) ** 2)


def test_discriminant_vandermonde_oracle():
    f = P("-1/2,-3,0,1")  # x^3 - 3x - 1/2
    roots = [b.mid for b in numeric_roots(f, 120)]
    prod = mp.mpf(1)
    for i in range(3):
        for j in range(i + 1, 3):
            prod *= (roots[i] - roots[j]) ** 2
    expected = discriminant(f)
    assert abs(prod - mp.mpf(expected.numerator) / expected.denominator) < mp.mpf(2) ** -80


def test_discriminant_quartic_frozen():
    # disc(x^4 + px^2 + r) = 16 r (p^2 - 4r)^2; here 16*7*64 = 7168 = 2^10*7,
    # cross-checked against the Vandermonde product of +-sqrt(3 +- sqrt2)
    assert discriminant(P("7,0,-6,0,1")) == 7168
    a2, b2 = 3 + mp.sqrt(2), 3 - mp.sqrt(2)
    vand = 16 * a2 * b2 * (a2 - b2) ** 4
    assert abs(vand - 7168) < 1e-9


def test_discriminant_rejects_constants():
    with pytest.raises(ExactPolyError):
        discriminant(P("3"))


# ---------------------------------------------------------------------------
# resultant
# ---------------------------------------------------------------------------

def test_resultant_examples():
    assert resultant(P("-1,1"), P("-1,1")) == 0
    # hand Sylvester determinant: res(x^2-2, x^2-3) = 1
    assert resultant(P("-2,0,1"), P("-3,0,1")) == 1


def test_resultant_discriminant_identity():
    # res(f, f') = lc * disc * (-1)^{n(n-1)/2} for several f
    for text in ["-2,0,1", "7,0,-6,0,1", "1,1,1,1", "-1,0,0,0,0,2"]:
        f = P(text)
        n = f.degree
        sign = (-1) ** (n * (n - 1) // 2)
        assert resultant(f, f.derivative()) == sign * f.lc * discriminant(f)


def test_disc_product_identity():
    # disc(fg) = disc(f) disc(g) res(f,g)^2 for coprime monic f, g
    cases = [(P("-2,0,1"), P("-3,0,1")),
             (P("-1,1"), P("1,1,1")),
             (P("7,0,-6,0,1"), P("2,0,1"))]
    for f, g in cases:
        assert discriminant(f * g) == (
            discriminant(f) * discriminant(g) * resultant(f, g) ** 2)


def test_resultant_matches_euclid_oracle():
    # the subresultant PRS in ints against the Euclidean PRS over Q: a
    # constant on either side, both degrees odd with deg f < deg g (the sign
    # of the swap), a shared factor (zero), then seeded rational and sparse
    # pairs
    rng = random.Random(22)

    def rand(d):
        return RationalPoly([F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                             for _ in range(d)] + [F(rng.choice((1, -2, 5)), rng.choice((1, 3)))])

    def sparse(d):
        return RationalPoly([rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(d)]
                            + [rng.choice((1, 2, -3))])

    common = P("1,-1,0,3")
    pairs = [(P("-3/2"), P("1,2,3")), (P("1,2,3"), P("-3/2")), (P("5"), P("7")),
             (P("-1,2"), P("2,0,0,1")), (P("1,1,0,1"), P("3,-1,0,2,0,1")),
             (P("2,-1/3,0,5"), P("1,0,0,0,0,0,0,-4")),
             (common * P("2,1"), common * P("-1,0,1")), (common, common * P("1/2,3"))]
    pairs += [(rand(rng.randint(0, 8)), rand(rng.randint(0, 8))) for _ in range(150)]
    # sparse pairs, whose remainder sequences skip degrees past the first step
    pairs += [(sparse(rng.randint(3, 8)), sparse(rng.randint(3, 8))) for _ in range(100)]
    pairs += [(rand(m) * h, rand(n) * h) for m, n, h in
              [(1, 2, rand(1)), (3, 1, rand(2)), (2, 2, rand(3))]]
    for f, g in pairs:
        got = resultant(f, g)
        assert got == resultant_by_euclid(f, g), (f, g)
        assert type(got) is Fraction
    assert [resultant(f, g) for f, g in pairs[3:8]] == \
        [-resultant(g, f) for f, g in pairs[3:6]] + [0, 0]


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_factor_cyclotomic():
    fac = factor_rationals(P("-1,0,0,1"))
    assert fac == [(P("-1,1"), 1), (P("1,1,1"), 1)]


def test_factor_irreducible_quartic():
    assert is_irreducible(P("1,0,-10,0,1"))  # min poly of sqrt2 + sqrt3


def test_factor_biquadratic_product():
    f = P("-2,0,1") * P("-3,0,1")
    # sorted by (degree, ascending coefficients)
    assert factor_rationals(f) == [(P("-3,0,1"), 1), (P("-2,0,1"), 1)]


def test_factor_multiplicities_and_lc():
    f = 6 * P("1,1") ** 2 * P("-2,0,1") * P("5,1")
    fac = factor_rationals(f)
    assert (P("1,1"), 2) in fac and (P("-2,0,1"), 1) in fac and (P("5,1"), 1) in fac
    g = RationalPoly([f.lc])
    for h, m in fac:
        g = g * h ** m
    assert g == f


def test_factor_nonmonic():
    f = P("-1,0,2")  # 2x^2 - 1, irreducible
    assert factor_rationals(f) == [(P("-1/2,0,1"), 1)]


def test_factor_degree_16():
    # product of two octics built from quartic minimal polynomials
    a = P("1,0,-10,0,1").compose(P("0,0,1"))  # degree 8
    b = P("7,0,-6,0,1").compose(P("1,0,1"))   # degree 8
    fac = factor_rationals(a * b)
    total = sum(h.degree * m for h, m in fac)
    assert total == 16
    g = RationalPoly([1])
    for h, m in fac:
        g = g * h ** m
    assert g == (a * b).monic()


_SMALL_IRRED = [P("-1,1"), P("1,1"), P("2,1"), P("-2,0,1"), P("1,1,1"),
                P("1,0,1"), P("-2,0,0,1"), P("1,0,-10,0,1")]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(_SMALL_IRRED))), min_size=1, max_size=4),
       st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0))
def test_factor_remultiplies(idxs, lead):
    f = RationalPoly([lead])
    for i in idxs:
        f = f * _SMALL_IRRED[i]
    fac = factor_rationals(f)
    g = RationalPoly([f.lc])
    for h, m in fac:
        g = g * h ** m
    assert g == f
    assert all(is_irreducible(h) for h, _ in fac)


def _seeded_products(rng, count):
    """Products of seeded pieces of degree 1 to 4, total degree <= 8, with
    integer or rational coefficients, monic or not; some pieces repeat and
    some are products of linear factors."""
    out = []
    while len(out) < count:
        pieces, total = [], 0
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 4)
            if total + d > 8:
                break
            if rng.random() < 0.3:
                piece = RationalPoly([1])
                for _ in range(d):
                    piece = piece * RationalPoly([rng.randint(-6, 6), rng.choice((1, 1, 2, 3))])
            else:
                den = 1 if rng.random() < 0.5 else rng.choice((2, 3, 5))
                piece = RationalPoly([F(rng.randint(-9, 9), den) for _ in range(d)]
                                     + [rng.choice((1, 1, 2, -3))])
            pieces.append(piece)
            total += d
        f = RationalPoly([rng.choice((1, 1, 2, F(-1, 3)))])
        for piece in pieces:
            f = f * piece
        if f.degree >= 1:
            out.append(f)
    return out


def test_factorizations_match_all_zassenhaus(monkeypatch):
    # roots first and degree-set pruning against Zassenhaus on every input,
    # on seeded products, on products of two to four pieces x^2 + b x + c
    # with b^2 < 4c (no real root), and on the golden Trager norms of degree
    # 8 and 16
    rng = random.Random(2022)
    root_free = []
    for _ in range(40):
        f = RationalPoly([1])
        for _ in range(rng.randint(2, 4)):
            f = f * P(f"{rng.randint(3, 9)},{rng.randint(-3, 3)},1")
        root_free.append(f)
    polys = _seeded_products(rng, 160) + root_free + _golden_norms()
    got = [factor_rationals(f) for f in polys]
    monkeypatch.setattr(factor, "_factor_monic_int", factor_monic_int_by_zassenhaus)
    assert got == [factor_rationals(f) for f in polys]
    degrees = Counter(h.degree for fac in got for h, _ in fac)
    assert all(degrees[d] >= 20 for d in (1, 2, 3, 4))


def test_cubics_and_root_free_quartics_skip_hensel(monkeypatch):
    # a cubic is its integer roots and an irreducible cofactor, so none
    # reaches the equal-degree split; the S4 quartic x^4 + x + 1 has the
    # factor degrees (1, 3) mod 3, so it has no quadratic factor
    split, lifted = [], []
    gf_factor, tree = modp.gf_factor_squarefree, factor._hensel_tree
    monkeypatch.setattr(modp, "gf_factor_squarefree",
                        lambda *a: split.append(a) or gf_factor(*a))
    monkeypatch.setattr(factor, "_hensel_tree", lambda *a: lifted.append(a) or tree(*a))
    rng = random.Random(23)
    cubics = [P("-6,11,-6,1"), P("-2,0,0,1"), P("1,1,1,1"), P("-1,-3,0,1"), P("0,-1,0,1")]
    cubics += [RationalPoly([rng.randint(-20, 20) for _ in range(3)] + [rng.choice((1, 2, 5))])
               for _ in range(60)]
    shapes = Counter(tuple(h.degree for h, _ in factor_rationals(f)) for f in cubics)
    assert not split and not lifted
    assert {(1, 1, 1), (1, 2), (3,)} <= set(shapes)
    assert is_irreducible(P("1,1,0,0,1")) and not split and not lifted


def test_no_usable_prime_is_an_exact_poly_error(monkeypatch):
    # both prime scans end in ExactPolyError, never StopIteration: the root
    # step's, and Zassenhaus's on a root-free cofactor of degree >= 4
    with monkeypatch.context() as m:
        m.setattr(modp, "_primes", lambda start: ())
        with pytest.raises(ExactPolyError, match="no usable prime"):
            factor_rationals(P("1,1,0,0,1"))
    monkeypatch.setattr(modp, "reductions", lambda f_int: iter(()))
    assert factor_rationals(P("-2,0,0,1")) == [(P("-2,0,0,1"), 1)]
    with pytest.raises(ExactPolyError, match="no usable prime"):
        factor_rationals(P("1,1,0,0,1"))


def test_squarefree_decomposition():
    f = P("1,1") ** 3 * P("-2,0,1")
    dec = squarefree_decomposition(f)
    assert dec == [(P("-2,0,1"), 1), (P("1,1"), 3)]


def test_squarefree_proofs_mod_p_change_no_answer(monkeypatch):
    # with the proof modulo a prime switched off, only the exact gcd and
    # Yun's algorithm run; the answers must not change.  1009 * 1013 * 1019
    # divides the discriminant of the first, so no proof is found for it
    rng = random.Random(18)
    polys = [RationalPoly([-1009 * 1013 * 1019, 0, 1])]
    for _ in range(60):
        f = RationalPoly([F(rng.choice((1, -2, 3)), rng.choice((1, 5)))])
        for _ in range(rng.randint(1, 4)):
            f = f * rng.choice(_SMALL_IRRED) ** rng.choice((1, 1, 2, 3))
        polys.append(f)
    got = [(is_squarefree(f), squarefree_decomposition(f)) for f in polys]
    assert any(sf for sf, _ in got) and not all(sf for sf, _ in got)
    monkeypatch.setattr(poly, "proved_squarefree", lambda f: False)
    monkeypatch.setattr(factor, "proved_squarefree", lambda f: False)
    assert got == [(is_squarefree(f), squarefree_decomposition(f)) for f in polys]


# ---------------------------------------------------------------------------
# numeric roots
# ---------------------------------------------------------------------------

def test_numeric_roots_i():
    balls = numeric_roots(P("1,0,1"), 100)
    assert len(balls) == 2
    for b, target in zip(balls, [mp.mpc(0, -1), mp.mpc(0, 1)]):
        assert abs(b.mid - target) <= b.radius
        assert b.radius <= mp.mpf(2) ** -100


def test_numeric_roots_cardano():
    # x^3 - 3x - 1/2: real roots 2cos((phi + 2k pi)/3), cos(phi) = 1/4
    f = P("-1/2,-3,0,1")
    balls = real_roots(f, 100)
    assert len(balls) == 3
    with mp.workprec(200):
        phi = mp.acos(mp.mpf(1) / 4)
        expected = sorted(2 * mp.cos((phi + 2 * mp.pi * k) / 3) for k in range(3))
        for b, e in zip(balls, expected):
            assert abs(b.mid - e) <= b.radius


def test_numeric_roots_nested_radicals():
    # x^4 - 6x^2 + 7: roots +-sqrt(3 +- sqrt2)
    balls = numeric_roots(P("7,0,-6,0,1"), 120)
    with mp.workprec(300):
        expected = sorted([mp.sqrt(3 + mp.sqrt(2)), -mp.sqrt(3 + mp.sqrt(2)),
                           mp.sqrt(3 - mp.sqrt(2)), -mp.sqrt(3 - mp.sqrt(2))],
                          key=lambda t: mp.mpf(t))
        for b, e in zip(balls, expected):
            assert abs(b.mid - e) <= b.radius


def test_numeric_roots_disjoint_and_conjugate():
    balls = numeric_roots(P("1,1,1,1,1"), 80)  # 5th cyclotomic
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            assert not balls_overlap(balls[i], balls[j])
    with mp.workprec(200):
        mids = [b.mid for b in balls]
        for b in balls:
            conj = mp.conj(b.mid)
            assert any(abs(conj - m) <= 2 * b.radius for m in mids)


def test_numeric_roots_precision_nesting():
    for text in ["1,0,1", "-1/2,-3,0,1", "7,0,-6,0,1", "1,1,1,1,1"]:
        coarse = numeric_roots(P(text), 64)
        fine = numeric_roots(P(text), 128)
        for c, f_ in zip(coarse, fine):
            assert ball_contains(c, f_)


def test_numeric_roots_rejects_squareful():
    with pytest.raises(ExactPolyError):
        numeric_roots(P("1,2,1"), 53)


# ---------------------------------------------------------------------------
# root-in-extension and compositum
# ---------------------------------------------------------------------------

def test_has_root_examples():
    # sqrt2 = theta^2 - 3 for theta a root of x^4 - 6x^2 + 7
    assert has_root_in_extension(P("-2,0,1"), P("7,0,-6,0,1"))
    assert not has_root_in_extension(P("-3,0,1"), P("-2,0,1"))
    f = P("1,0,-10,0,1")
    assert has_root_in_extension(f, f)


def test_has_root_rejects_reducible_extension():
    with pytest.raises(ExactPolyError):
        has_root_in_extension(P("-2,0,1"), P("-1,0,0,1"))


def _numeric_root_oracle(g, f):
    """Independent oracle: match each root ball of g against polynomial
    images of the root balls of f, then verify any candidate exactly.

    If g has a root h(theta) in Q[x]/(f), then h maps each conjugate of
    theta to some root of g, so h is recovered by solving the Vandermonde
    system h(theta_i) = beta_{a(i)} for some assignment a, rounding to
    rationals, and checking g(h) = 0 mod f exactly.
    """
    from itertools import product

    n = f.degree
    thetas = [b.mid for b in numeric_roots(f, 200)]
    betas = [b.mid for b in numeric_roots(g, 200)]
    with mp.workprec(700):
        V = mp.matrix([[t ** k for k in range(n)] for t in thetas])
        for assign in product(range(len(betas)), repeat=n):
            rhs = mp.matrix([betas[i] for i in assign])
            try:
                sol = mp.lu_solve(V, rhs)
            except ZeroDivisionError:
                continue
            coeffs = []
            ok = True
            for c in sol:
                if abs(mp.im(c)) > mp.mpf(2) ** -100:
                    ok = False
                    break
                q = F(str(mp.nstr(mp.re(c), 40))).limit_denominator(10 ** 10)
                if abs(mp.re(c) - mp.mpf(q.numerator) / q.denominator) > mp.mpf(2) ** -100:
                    ok = False
                    break
                coeffs.append(q)
            if not ok:
                continue
            h = RationalPoly(coeffs)
            if (g.compose(h) % f).is_zero():
                return True
    return False


def test_has_root_numeric_oracle_corpus():
    corpus = [
        (P("-2,0,1"), P("7,0,-6,0,1")),
        (P("-7,0,1"), P("7,0,-6,0,1")),
        (P("-3,0,1"), P("7,0,-6,0,1")),
        (P("-2,0,1"), P("1,0,-10,0,1")),
        (P("-3,0,1"), P("1,0,-10,0,1")),
        (P("-6,0,1"), P("1,0,-10,0,1")),
        (P("-5,0,1"), P("1,0,-10,0,1")),
        (P("-2,0,0,1"), P("-2,0,0,1")),
        (P("-3,0,1"), P("-2,0,0,1")),
        (P("-1,1"), P("-2,0,1")),
    ]
    extra_fields = [P("-2,0,1"), P("-3,0,1"), P("-5,0,1"), P("1,0,1"),
                    P("3,0,1"), P("-2,0,0,1"), P("2,0,0,1"), P("1,1,1")]
    for f in extra_fields:
        for g in [P("-2,0,1"), P("-8,0,1"), P("-12,0,1"), P("2,0,1"),
                  P("-1,1")]:
            corpus.append((g, f))
    assert len(corpus) >= 50
    for g, f in corpus:
        got = has_root_in_extension(g, f)
        want = _numeric_root_oracle(g, f)
        assert got == want, f"mismatch for g={g.to_text()}, f={f.to_text()}"


def test_sqrt8_in_sqrt2():
    # sanity pin for the oracle corpus: sqrt8 = 2 sqrt2
    assert has_root_in_extension(P("-8,0,1"), P("-2,0,1"))
    assert not has_root_in_extension(P("-12,0,1"), P("-2,0,1"))


def test_roots_in_extension_count():
    # x^4 - 6x^2 + 7 generates a quartic field with exactly 2 automorphic
    # root images (C4 quartic field would have 4; this one has 2)
    f = P("7,0,-6,0,1")
    assert len(roots_in_extension(f, f)) == 2
    g = P("1,0,-10,0,1")  # Galois V4 field: all 4 roots rational in theta
    assert len(roots_in_extension(g, g)) == 4


def test_compositum():
    # Q(cbrt2) tensor Q(sqrt-3) = degree-6 field (Galois closure of x^3-2)
    fac = compositum_factors(P("-2,0,0,1"), P("3,0,1"))
    assert len(fac) == 1 and fac[0].degree == 6
    # Q(sqrt2) tensor Q(sqrt2) splits as two copies
    fac2 = compositum_factors(P("-2,0,1"), P("-2,0,1"))
    assert sorted(h.degree for h in fac2) == [2, 2]


def test_fields_isomorphic():
    assert fields_isomorphic(P("-2,0,1"), P("-8,0,1"))
    assert not fields_isomorphic(P("-2,0,1"), P("-3,0,1"))
    assert not fields_isomorphic(P("-2,0,1"), P("-2,0,0,1"))


# ---------------------------------------------------------------------------
# gcd / squarefree utility behavior
# ---------------------------------------------------------------------------

def test_gcd_and_squarefree():
    f = P("1,1") * P("-2,0,1")
    g = P("1,1") * P("-3,0,1")
    assert gcd(f, g) == P("1,1")
    assert is_squarefree(f)
    assert not is_squarefree(P("1,1") ** 2)


# ---------------------------------------------------------------------------
# GF(p) layer: distinct-degree patterns against full factorization
# ---------------------------------------------------------------------------

def _random_squarefree_gf(rng, n, p):
    """A seeded monic squarefree polynomial of degree n over GF(p)."""
    while True:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if modp.gf_is_squarefree(f, p):
            return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_gf_factor_degrees_match_full_factorization(p):
    rng = random.Random(1000 + p)
    for n in range(1, 17):
        for _ in range(3):
            f = _random_squarefree_gf(rng, n, p)
            pieces = modp._distinct_degree(f, p)
            factors = modp.gf_factor_squarefree(pieces, p)
            assert modp.factor_degrees(pieces) == sorted(len(g) - 1 for g in factors)
            prod = [1]
            for g in factors:
                prod = modp.gf_mul(prod, g, p)
            assert prod == f


def _frobenius_types_by_full_factoring(f, count):
    """The cycle-type sample of `frobenius_cycle_types`, read from complete
    Cantor-Zassenhaus factorizations: the oracle for its reading of root
    counts and discriminant parities."""
    _, fz = f.monic().primitive_int()
    ints = [int(c) for c in fz.coeffs]
    types, p, found = set(), 2, 0
    while found < count:
        p += 1
        if any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)) or ints[-1] % p == 0:
            continue
        fp = modp.gf_from_int_poly(ints, p)
        if len(fp) - 1 != f.degree or not modp.gf_is_squarefree(fp, p):
            continue
        pieces = modp._distinct_degree(modp.gf_monic(fp, p), p)
        degs = [len(g) - 1 for g in modp.gf_factor_squarefree(pieces, p)]
        types.add(tuple(sorted(degs, reverse=True)))
        found += 1
    return types


@pytest.mark.parametrize("count", [25, 120])
def test_frobenius_cycle_types_match_full_factoring(count):
    # one field of each quartic Galois group, two of each, as given and in
    # a non-monic model; then seeded squarefree polynomials of degree 2 to 4
    # with rational coefficients, monic and not.  V4 and A4 have no 4-cycle,
    # so they would show (4) read for (2,2)
    rng = random.Random(count)
    polys = [P(t) for ts in _TAGGED_QUARTICS.values() for t in ts]
    polys += [_non_monic(f, rng) for f in polys]
    while len(polys) < 56:
        n, lead = 2 + len(polys) % 3, F(rng.choice((1, 1, -2, 3, 5)), rng.choice((1, 1, 2, 7)))
        f = RationalPoly([F(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(n)] + [lead])
        if is_squarefree(f):
            polys.append(f)
    for f in polys:
        assert frobenius_cycle_types(f, count) == _frobenius_types_by_full_factoring(f, count), f


# ---------------------------------------------------------------------------
# interpolation and Trager norms
# ---------------------------------------------------------------------------

def _lagrange(xs, ys):
    """Lagrange's formula, one product per point: the oracle for the
    Newton-form `interpolate` of the test helpers."""
    out = RationalPoly([])
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num = RationalPoly([yi])
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * RationalPoly([-xj, 1])
            den *= xi - xj
        out = out + num * RationalPoly([1 / den])
    return out


def test_interpolate_matches_lagrange():
    rng = random.Random(17)
    for n in range(0, 18):
        xs = rng.sample(sorted({F(a, b) for a in range(-12, 13) for b in (1, 2, 3)}), n)
        pool = [F(0), F(0), F(3), F(-5, 2), F(rng.randint(-99, 99), rng.randint(1, 9))]
        ys = [rng.choice(pool) for _ in xs]
        assert interpolate(xs, ys) == _lagrange(xs, ys), (xs, ys)


def test_trager_norm_at_fresh_points_is_the_resultant():
    f, g, lam = P("7,0,-6,0,1"), P("-3,1,0,1"), F(2)
    norm = trager_norm(f, g, lam)
    assert norm.degree == f.degree * g.degree
    shift = RationalPoly([0, -lam])  # -lam*y
    for x0 in (37, -41, 100):
        # g(x0 - lam*y) as a polynomial in y, summed term by term
        gy = RationalPoly([])
        for i, c in enumerate(g.coeffs):
            gy = gy + RationalPoly([c]) * (shift + RationalPoly([x0])) ** i
        assert norm(F(x0)) == resultant(f, gy)


def _seeded_poly(rng, degree, monic):
    coeffs = [F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(degree)]
    lead = F(1) if monic else F(rng.choice((1, -1)) * rng.randint(1, 7), rng.choice((1, 2, 3, 5)))
    return RationalPoly(coeffs + [lead])


def test_trager_norm_matches_resultant_oracle():
    # the composed sum against interpolated resultants, f and g of degree
    # 1-4, monic and not, integer and rational lam
    rng = random.Random(15)
    for i in range(160):
        f = _seeded_poly(rng, rng.randint(1, 4), i % 2 == 0)
        g = _seeded_poly(rng, rng.randint(1, 4), i % 4 < 2)
        if i % 3:
            lam = F(rng.choice((1, -1, 2, -2, 3)))
        else:
            lam = F(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(2, 4))
        assert trager_norm(f, g, lam) == trager_norm_by_resultants(f, g, lam), (f, g, lam)


def _seeded_nonintegral_poly(rng, degree):
    while True:
        f = _seeded_poly(rng, degree, rng.random() < 0.5)
        if any(c.denominator != 1 for c in f.coeffs):
            return f


def test_charpoly_matches_resultant_oracle():
    # power sums and traces against interpolated resultants, f of degree 1-4
    # with rational, non-integral coefficients, r reduced mod f
    rng = random.Random(17)
    for i in range(200):
        f = _seeded_nonintegral_poly(rng, rng.randint(1, 4))
        if i % 10 == 0:
            r = RationalPoly([])
        elif i % 10 == 1:
            r = RationalPoly([F(rng.randint(-9, 9), rng.randint(1, 5))])
        else:
            r = _seeded_poly(rng, f.degree - 1, False) % f
        assert charpoly(r, f) == charpoly_by_resultants(r, f), (r, f)
    # CoclassV4 checks norm one through charpoly: delta = u^3 / N(u), with
    # N(u) a product of resultants, has norm one in any cubic algebra R
    for i in range(60):
        g = RationalPoly([1])
        for d in ((3,), (1, 2), (1, 1, 1))[i % 3]:
            g = g * _seeded_nonintegral_poly(rng, d)
        if not is_squarefree(g):
            continue
        R = EtaleAlgebra.from_poly(g)
        u = [_seeded_poly(rng, f.degree - 1, False) % f for f in R.factors]
        if any(x.is_zero() for x in u):
            continue
        n = F(1)
        for x, f in zip(u, R.factors):
            n *= resultant(f, x)
        if n == 0:
            continue
        cc = CoclassV4(R, tuple(x ** 3 * RationalPoly([1 / n]) for x in u))
        by_resultants = F(1)
        for d, f in zip(cc.delta, R.factors):
            by_resultants *= resultant(f, d)
        assert cc.norm() == by_resultants == 1, (R, u)


def test_trager_norm_at_lam_zero_is_a_power_of_g():
    # Res_y(f(y), g(x)) = g(x)^deg f: no interpolation point is skipped
    start = time.perf_counter()
    f, g = P("-2,0,1"), P("-3,0,1")
    assert trager_norm(f, g, F(0)) == g ** 2
    assert trager_norm(P("-2,0,0,1/3"), g, 0) == g ** 3
    assert time.perf_counter() - start < 1
    with pytest.raises(ExactPolyError):
        trager_norm(RationalPoly([]), g, 1)


def test_squarefree_mod_prime_proves_only_squarefree():
    square = P("-2,0,1") * P("-2,0,1") * P("1,1")
    assert not modp.squarefree_mod_prime([int(c) for c in square.coeffs])
    assert modp.squarefree_mod_prime([int(c) for c in P("-2,0,1").coeffs])
    # 1009 * 1013 * 1019 divides the discriminant 4 * 1009 * 1013 * 1019
    assert not modp.squarefree_mod_prime([-1009 * 1013 * 1019, 0, 1])


def test_shift_is_composition_with_x_plus_a():
    # the Taylor shift on the coefficient list against Horner composition
    rng = random.Random(20)
    assert RationalPoly([]).shift(F(3, 2)) == RationalPoly([])
    for degree in range(9):
        for _ in range(5):
            f = _seeded_poly(rng, degree, rng.random() < 0.5)
            a = F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
            assert f.shift(a) == f.compose(RationalPoly([a, 1])), (f, a)


def _split_roots_by_factoring(f_int, g_int, scan):
    """`modp.split_roots` from complete Cantor-Zassenhaus factorizations over
    GF(p): the oracle for its roots read from values."""
    def linear_roots(a, p):
        factors = modp.gf_factor_squarefree(modp._distinct_degree(a, p), p)
        if all(len(u) == 2 for u in factors):
            return sorted(-u[0] % p for u in factors)
        return None

    usable, p = 0, 2
    while usable < scan and p < 10000:
        p += 1
        if not modp.is_prime(p):
            continue
        fp, gp = modp.gf_from_int_poly(f_int, p), modp.gf_from_int_poly(g_int, p)
        if len(fp) != len(f_int) or not modp.gf_is_squarefree(fp, p):
            continue
        usable += 1
        roots_f = linear_roots(fp, p)
        if roots_f is not None and len(gp) == len(g_int) and modp.gf_is_squarefree(gp, p):
            return p, roots_f, linear_roots(gp, p)
    return None


def test_split_roots_match_full_factorization():
    # seeded monic squarefree f and monic g of degree 1 to 4; f a product of
    # linear factors in every third pair, so that g's roots are often read
    rng = random.Random(21)
    results = set()
    for i in range(120):
        while True:
            n = rng.randint(1, 4)
            if i % 3 == 0:
                f = RationalPoly([1])
                for _ in range(n):
                    f = f * RationalPoly([rng.randint(-20, 20), 1])
            else:
                f = RationalPoly([rng.randint(-9, 9) for _ in range(n)] + [1])
            if is_squarefree(f):
                break
        g = RationalPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
        f_int, g_int = [int(c) for c in f.coeffs], [int(c) for c in g.coeffs]
        for scan in (3, 200):
            got = modp.split_roots(f_int, g_int, scan)
            assert got == _split_roots_by_factoring(f_int, g_int, scan), (f, g, scan)
            results.add("none" if got is None else "g splits" if got[2] else "g not split")
    assert results == {"none", "g splits", "g not split"}


# ---------------------------------------------------------------------------
# frozen factorizations of Trager norms from the codec-roundtrip draws
# ---------------------------------------------------------------------------

_C4_TWISTS = (1, 2, 3, 5, 6, 7, 10, 14, -2, -3, -5, -7)
_SMALL_RATIONALS = [F(s * n, d) for s in (1, -1) for n in (1, 2, 3, 5, 6, 7)
                    for d in (1, 2, 3)]


def _c4_quartic(rng):
    """x^4 - 4c x^2 + 2c^2 - 2a, irreducible, for alpha = (c^2/N(beta)) beta^2
    with beta = u + v sqrt(-D)."""
    while True:
        D = rng.choice(_C4_TWISTS)
        u = rng.choice((1, -1)) * rng.randint(1, 4)
        v = rng.choice((1, -1)) * rng.randint(1, 3)
        n = u * u + D * v * v
        if n == 0:
            continue
        c = F(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))
        a = c * c / n * (u * u - D * v * v)
        f = RationalPoly([2 * c * c - 2 * a, 0, -4 * c, 0, 1])
        if is_irreducible(f):
            return f


def _v4_quartic(rng):
    """The irreducible quartic of a split-R V4 datum (d1, d2, 1/(d1 d2))."""
    R = EtaleAlgebra.from_text("0,1|0,1|0,1")
    while True:
        d1, d2 = rng.choice(_SMALL_RATIONALS), rng.choice(_SMALL_RATIONALS)
        L = v4_encode(CoclassV4(R, (d1, d2, 1 / (d1 * d2))))
        if len(L.factors) == 1:
            return L.factors[0]


def _golden_quartics():
    """Four C4-or-D4 quartics, then four V4 quartics, seeded."""
    rng = random.Random(2025)
    c4 = [_c4_quartic(rng) for _ in range(4)]
    return c4, [_v4_quartic(rng) for _ in range(4)]


def _golden_norms():
    """Squarefree Trager norms, as the isomorphism tests and the former C4
    tag test build them: f against f (degree 16) and the discriminant's
    quadratic against f (degree 8) for four C4 quartics, f against f for
    four V4 quartics."""
    c4, v4 = _golden_quartics()
    norms = []
    for f in c4:
        quad = RationalPoly([-squarefree_part(discriminant(f)), 0, 1])
        norms.append(_squarefree_norm(f, f)[1])
        norms.append(_squarefree_norm(f, quad)[1])
    for f in v4:
        norms.append(_squarefree_norm(f, f)[1])
    return norms


_GOLDEN_NORM_FACTORS = [
    ['81,0,-6,0,1', '1089,0,42,0,1', '3249,0,-102,0,1', '6561,0,-54,0,1'],
    ['76,-8,0,4,1', '76,8,0,-4,1'],
    ['48/11,0,-4,0,1', '3888/11,0,-36,0,1', '246016/121,0,-14720/11,0,5136/11,0,-40,0,1'],
    ['111830625/121,0,-1478388/11,0,75050/11,0,-140,0,1'],
    ['10/3,0,-4,0,1', '270,0,-36,0,1', '3364/9,0,-4880/3,0,1444/3,0,-40,0,1'],
    ['5522500/9,0,-301760/3,0,16988/3,0,-128,0,1'],
    ['10/27,0,4/3,0,1', '30,0,12,0,1', '3364/729,0,4880/81,0,1444/27,0,40/3,0,1'],
    ['644652100/729,0,-8940160/81,0,143708/27,0,-352/3,0,1'],
    ['1033/49,-24,52/7,0,1', '129145/441,-24,-412/21,0,1', '475225/441,-24,1268/21,0,1',
     '96345/49,-216,276/7,0,1'],
    ['1/4,-24,-19,0,1', '141697/324,-24,-595/9,0,1', '2593/4,-216,-163,0,1',
     '840673/324,-24,-1027/9,0,1'],
    ['3217/196,-24,-131/7,0,1', '67657/1764,-24,-865/21,0,1', '454689/196,-216,-1083/7,0,1',
     '6650233/1764,-24,-2713/21,0,1'],
    ['-639/4,-216,-69,0,1', '-47/4,-24,-13,0,1', '4393/36,-24,-95/3,0,1',
     '9337/36,-24,-119/3,0,1'],
]


def test_trager_norm_factorizations_frozen(monkeypatch):
    norms = _golden_norms()
    assert sorted({N.degree for N in norms}) == [8, 16]
    scans = []
    read = modp.factor_degrees

    def spy(pieces):
        degs = read(pieces)
        scans[-1].append(len(degs))
        return degs

    monkeypatch.setattr(modp, "factor_degrees", spy)
    for N, want in zip(norms, _GOLDEN_NORM_FACTORS):
        scans.append([])
        assert factor_rationals(N) == [(P(t), 1) for t in want]
        # the prime scan stops at its first count <= 2, or after 7 primes
        scan = scans[-1]
        assert all(c > 2 for c in scan[:-1])
        assert scan[-1] <= 2 or len(scan) == 7
    capped = [scan for scan in scans if min(scan) > 2]
    assert capped and all(len(scan) == 7 for scan in capped)


def test_distinct_degree_runs_once_per_scored_prime(monkeypatch):
    # the equal-degree split reuses the scored pieces of the chosen prime,
    # so the primes reaching distinct-degree factorization strictly increase
    norms = _golden_norms()
    ddf = modp._distinct_degree
    primes = []

    def spy(f, p):
        primes[-1].append(p)
        return ddf(f, p)

    monkeypatch.setattr(modp, "_distinct_degree", spy)
    for N, want in zip(norms, _GOLDEN_NORM_FACTORS):
        primes.append([])
        factor_rationals(N)
        assert primes[-1] == sorted(set(primes[-1])), (want, primes[-1])
    # the check bites where a split runs: most norms have several factors
    assert sum(len(want) > 1 for want in _GOLDEN_NORM_FACTORS) >= 8


def test_norm_factoring_keeps_coefficients_small(monkeypatch):
    # the norms reach Zassenhaus as s^N N(x/s), not monicized by the
    # (N-1)-th power of their leading coefficient (622 bits that way)
    bits = []
    monic_int = factor._factor_monic_int

    def spy(f_int):
        bits.append(max(abs(c).bit_length() for c in f_int))
        return monic_int(f_int)

    monkeypatch.setattr(factor, "_factor_monic_int", spy)
    c4, v4 = _golden_quartics()
    # compositum_factors is the one path left that factors whole norms; the
    # degree-4 factors of K (x) K are the automorphisms of K
    assert [sum(q.degree == 4 for q in compositum_factors(f, f)) for f in c4 + v4] \
        == [4, 2, 2, 2, 4, 4, 4, 4]
    assert max(bits) <= 256


def _tschirnhaus(f, rng):
    """A generator of Q[y]/(f) other than y: the characteristic polynomial of
    a seeded r(y) of degree 1 to deg f - 1, squarefree, so irreducible."""
    while True:
        r = RationalPoly([rng.randint(-3, 3) for _ in range(rng.randint(2, f.degree))])
        g = charpoly(r, f)
        if r.degree >= 1 and is_squarefree(g):
            return g


def _non_monic(g, rng):
    """c * g(k x) for seeded rationals c and k: the same field, another model."""
    c, k = rng.choice((5, F(-2, 7), 3)), rng.choice((2, F(1, 3), F(-3, 2)))
    return RationalPoly([c * a * k ** i for i, a in enumerate(g.coeffs)])


def test_from_poly_proves_squarefreeness_once(monkeypatch):
    # etale-ness is read from the multiplicities of factor_rationals, whose
    # squarefree decomposition runs the one proof modulo a prime
    c4, v4 = _golden_quartics()
    calls = []
    proved = poly.proved_squarefree

    def spy(f):
        calls.append(f)
        return proved(f)

    monkeypatch.setattr(poly, "proved_squarefree", spy)
    monkeypatch.setattr(factor, "proved_squarefree", spy)
    for f in c4 + v4:
        calls.clear()
        EtaleAlgebra.from_poly(f)
        assert len(calls) == 1, f


def test_isomorphism_factors_no_norm(monkeypatch):
    # the golden C4 and D4 quartics against a Tschirnhaus transform of
    # themselves and against each other: nothing reaches Zassenhaus, neither
    # a Trager norm of degree 16 nor the irreducible quartics themselves
    degrees = []
    monic_int = factor._factor_monic_int

    def spy(f_int):
        degrees.append(len(f_int) - 1)
        return monic_int(f_int)

    c4, _ = _golden_quartics()
    rng = random.Random(18)
    pairs = [(f, _tschirnhaus(f, rng)) for f in c4] + list(zip(c4, c4[1:]))
    monkeypatch.setattr(factor, "_factor_monic_int", spy)
    assert [fields_isomorphic(f, g) for f, g in pairs] == [True] * 4 + [False] * 3
    assert degrees == []


# one field of each transitive Galois group of degree 4, two of each
_TAGGED_QUARTICS = {
    "C4": ["2,0,-4,0,1", "1,1,1,1,1"], "D4": ["7,0,-6,0,1", "-2,0,0,0,1"],
    "V4": ["1,0,-10,0,1", "1,0,0,0,1"], "A4": ["12,8,0,0,1", "1,-3,-7,0,1"],
    "S4": ["-1,-1,0,0,1", "1,1,0,0,1"],
}


def test_algebra_isomorphism_factors_nothing(monkeypatch):
    # the factors of an etale algebra are irreducible by construction, so
    # its isomorphism test neither factors them again nor proves them
    # irreducible; the answers are those of fully factored norms
    rng = random.Random(19)
    fields = [P(t) for ts in _TAGGED_QUARTICS.values() for t in ts]
    mine = [EtaleAlgebra.from_poly(f) for f in fields]
    theirs = [EtaleAlgebra.from_poly(_tschirnhaus(f, rng)) for f in fields]
    pairs = [(A, theirs[j % len(fields)]) for i, A in enumerate(mine) for j in (i, i + 1, i + 2)]

    def by_factoring(A, B):
        f, g = A.factors[0], B.factors[0]
        return any(next(found, None) is not None for _, found in trager_roots_by_factoring(g, f))

    expected = [by_factoring(A, B) for A, B in pairs]
    calls = []
    for module in (extension, factor, etalealg):
        for name in ("factor_rationals", "is_irreducible"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
    assert [A.isomorphic(B) for A, B in pairs] == expected
    assert expected[::3] == [True] * len(fields) and not calls


def _against_factored_norms(monkeypatch, pairs, fields=()):
    """For each (g, f) of pairs, fields_isomorphic(f, g),
    has_root_in_extension(g, f) and roots_in_extension(g, f), then
    extension_automorphisms(f) for each f of fields, all as the split prime
    finds them, once they agree with fully factored norms: the root tests
    with `trager_roots_by_factoring` in place of `_trager_roots`, the roots
    with the Euclid over K of `roots_by_factoring`."""
    def tests():
        return [(fields_isomorphic(f, g), has_root_in_extension(g, f)) for g, f in pairs]

    got = tests()
    roots = [roots_in_extension(g, f) for g, f in pairs]
    auts = [extension_automorphisms(f) for f in fields]
    assert roots == [roots_by_factoring(g, f) for g, f in pairs]
    assert auts == [roots_by_factoring(f, f) for f in fields]
    with monkeypatch.context() as m:
        m.setattr(extension, "_trager_roots", trager_roots_by_factoring)
        assert got == tests()
    return [(iso, has, r) for (iso, has), r in zip(got, roots)], auts


def test_roots_in_extension_match_factored_norms(monkeypatch):
    rng = random.Random(2026)
    fields = [P(t) for ts in _TAGGED_QUARTICS.values() for t in ts]
    assert [etalealg.galois_group(EtaleAlgebra.from_poly(f)) for f in fields] \
        == [tag for tag in _TAGGED_QUARTICS for _ in range(2)]
    pairs, models = [], []
    for i, f in enumerate(fields):
        g, f2 = _tschirnhaus(f, rng), _non_monic(f, rng)
        other = fields[(i + 2) % len(fields)]
        pairs += [(g, f), (_non_monic(g, rng), f2),
                  (_tschirnhaus(other, rng), f), (_non_monic(other, rng), f2)]
        models += [f, f2]
    got, auts = _against_factored_norms(monkeypatch, pairs, models)
    assert [iso for iso, _, _ in got] == [True, True, False, False] * len(fields)
    assert all((g(r) % f).is_zero() for (g, f), (_, _, roots) in zip(pairs, got) for r in roots)
    assert [len(a) for a in auts] == [n for n in (4, 4, 2, 2, 4, 4, 1, 1, 1, 1) for _ in range(2)]


def test_quadratic_subfields_match_factored_norms(monkeypatch):
    # quadratics, and products of them with a linear factor, inside quartics,
    # monic and not; the sqrt of the discriminant lies in the C4 and V4 fields
    rng = random.Random(3)
    pairs = []
    for ts in _TAGGED_QUARTICS.values():
        for t in ts:
            f = P(t)
            d = squarefree_part(discriminant(f))
            quads = [RationalPoly([-q, 0, 1]) for q in dict.fromkeys((d, 2, -1, 3, 5))]
            pairs += [(q, f) for q in quads] + [
                (quads[0] * quads[1] * P("7,3"), f),
                (quads[2] * _non_monic(quads[3], rng) * P("-5,2"), f)]
    got, _ = _against_factored_norms(monkeypatch, pairs)
    assert sum(has for _, has, _ in got) > len(got) // 4


def test_sextic_subfields_match_factored_norms(monkeypatch):
    # the S3 closure of cbrt 2 holds x^3 - 2 and sqrt(-3); a Galois sextic
    # has a split prime, so its roots are read from the maps tau
    f = torsor_closure(EtaleAlgebra.from_poly(P("-2,0,0,1"))).factors[0]
    pairs = [(P("-2,0,0,1"), f), (P("3,0,1"), f), (P("-2,0,0,1") * P("3,0,1"), f)]
    got, auts = _against_factored_norms(monkeypatch, pairs, [f])
    assert [len(roots) for _, _, roots in got] == [3, 2, 5]
    assert len(auts[0]) == 6


def test_no_split_prime_falls_back_to_factored_norms(monkeypatch):
    # the root tests factor the whole norms; the roots, which need the maps
    # tau of a split prime, are out of reach wherever a root exists
    calls = []
    norm_factors = extension._norm_factors

    def spy(f, h):
        calls.append(h)
        return norm_factors(f, h)

    monkeypatch.setattr(extension, "_SPLIT_SCAN", 0)
    monkeypatch.setattr(extension, "_norm_factors", spy)
    rng = random.Random(7)
    fields = [P(_TAGGED_QUARTICS[tag][0]) for tag in ("C4", "D4", "S4")]
    pairs = [(g, f) for f in fields for g in (_tschirnhaus(f, rng), P("-2,0,1"))]

    def tests():
        return [(fields_isomorphic(f, g), has_root_in_extension(g, f)) for g, f in pairs]

    got = tests()
    with monkeypatch.context() as m:
        m.setattr(extension, "_trager_roots", trager_roots_by_factoring)
        assert got == tests()
    assert got == [(True, True), (False, True)] * 2 + [(True, True), (False, False)]
    assert roots_in_extension(*pairs[-1]) == []
    for g, f in pairs[:-1] + [(f, f) for f in fields]:
        with pytest.raises(UnsupportedSize, match="split prime"):
            roots_in_extension(g, f)
    assert calls


def test_roots_are_lifted_past_the_first_precision(monkeypatch):
    # seeded transforms with coefficients in [-30, 30] in non-monic models:
    # some roots are read only after the p-adic roots are lifted further, a
    # call of _lift_roots from a modulus m to m^2 (p == bound == m)
    further = []
    lift_roots = factor._lift_roots

    def spy(F, roots, p, bound):
        further.append(p == bound)
        return lift_roots(F, roots, p, bound)

    monkeypatch.setattr(factor, "_lift_roots", spy)
    rng = random.Random(29)
    count = 0
    for t in (t for ts in _TAGGED_QUARTICS.values() for t in ts):
        f = _non_monic(P(t), rng)
        for _ in range(3):
            r = RationalPoly([rng.randint(-30, 30) for _ in range(rng.randint(2, 4))])
            g = charpoly(r, f)
            if r.degree < 1 or not is_squarefree(g):
                continue
            roots = roots_in_extension(g, f)
            assert r in roots and all((g(x) % f).is_zero() for x in roots)
            count += len(roots)
    assert sum(further) > 0 and count > 40


def test_sextic_roots_match_the_euclid_over_k(monkeypatch):
    # the golden S3 closures of x^3 - 2 and x^3 - x + 1 and the C6 field
    # Q(zeta_7): their automorphisms and the roots of their cubic and
    # quadratic subfields, read from tau at a split prime
    closures = [torsor_closure(EtaleAlgebra.from_poly(P(t))).factors[0]
                for t in ("-2,0,0,1", "1,-1,0,1")]
    assert [f.to_text() for f in closures] == ["31,36,27,-4,9,0,1",
                                               "13249,-140,1588,2,67,0,1"]
    c6 = P("1,1,1,1,1,1,1")
    pairs = [(P("1,-1,0,1"), closures[1]), (P("23,0,1"), closures[1]),
             (P("-1,-2,1,1"), c6), (P("7,0,1") * P("2,0,1"), c6)]
    got, auts = _against_factored_norms(monkeypatch, pairs, closures + [c6])
    assert [len(roots) for _, _, roots in got] == [3, 2, 3, 2]
    assert [len(a) for a in auts] == [6, 6, 6]
