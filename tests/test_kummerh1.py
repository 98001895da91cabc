"""Tests for coclass.kummerh1.

Codec values are frozen from exact expansion of the closed forms
(theta = cbrt(delta) + cbrt(conj delta) for C3; even-sign square-root sums
for V4; (theta^2-2c)^2 = 2a+2c^2 for C4), independently checked by numeric
root oracles and field-isomorphism tests.
"""

import random
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coclass import corpus, etalealg, kummerh1
from coclass.etalealg import (
    EtaleAlgebra,
    EtaleError,
    SquareClass,
    _resolvent_of_depressed,
    cubic_resolvent,
    depress_quartic,
    galois_group,
    quadratic_resolvent,
)
from coclass.exactpoly import (
    RationalPoly,
    factor_rationals,
    fields_isomorphic,
    is_squarefree,
    modp,
    numeric_roots,
)
from coclass.kummerh1 import (
    CoclassC3,
    CoclassC4,
    CoclassV4,
    KummerError,
    QuadElem,
    c3_add,
    c3_decode,
    c3_encode,
    c4_add,
    c4_decode,
    c4_encode,
    v4_decode,
    v4_encode,
)
from coclass.quadratic import squarefree_part
from helpers import (
    c4_model_in_quadratic_field,
    kummer_radical,
    mu_power_dual,
    tate_dual_twist,
)

P = RationalPoly
F = Fraction


def norm_one(d: int, p, q) -> QuadElem:
    """z / conj(z) for z = p + q sqrt(d): a generic norm-one element."""
    z = QuadElem.of(d, p, q)
    n = z.norm()
    if n == 0:
        raise ValueError("zero norm seed")
    return z * z * (1 / n)


# ---------------------------------------------------------------------------
# QuadElem arithmetic
# ---------------------------------------------------------------------------

def test_quadelem_arithmetic():
    a = QuadElem.of(-15, F(1, 4), F(1, 4))
    assert a.norm() == 1 and a.trace() == F(1, 2)
    assert (a * a.conj()).x == 1 and (a * a.conj()).y == 0
    assert (a * a.inv()) == QuadElem.of(-15, 1, 0)
    assert (a ** 3) == a * a * a
    b = QuadElem.of(-15, 2, 1)
    assert (a + b) - b == a
    assert (a * b).norm() == a.norm() * b.norm()


def test_quadelem_split_base():
    # d = 1 is the split algebra Q x Q via components x +- y
    u = F(2)
    e = QuadElem.of(1, (u + 1 / u) / 2, (u - 1 / u) / 2)
    assert e.norm() == 1
    assert e.x + e.y == u and e.x - e.y == 1 / u


def test_quadelem_mismatched_bases():
    with pytest.raises(KummerError):
        QuadElem.of(-15, 1, 0) * QuadElem.of(-3, 1, 0)


def test_quadelem_of_zero_has_no_square_class():
    # d = 0 names no quadratic algebra, and fails as SquareClass.of(0) does
    for make in (lambda: QuadElem.of(0, 1, 1), lambda: SquareClass.of(0)):
        with pytest.raises(EtaleError, match="^zero has no square class$"):
            make()


# ---------------------------------------------------------------------------
# radical algebras
# ---------------------------------------------------------------------------

def test_kummer_radical_examples():
    assert kummer_radical(2, 1).to_text() == "-1,1|1,1"  # [TRIVIAL] Q x Q
    cbrt2 = kummer_radical(3, 2)
    assert len(cbrt2.factors) == 1 and cbrt2.factors[0].degree == 3
    # [DERIVED] x^4 - 4 = (x^2-2)(x^2+2)
    assert kummer_radical(4, 4).to_text() == "-2,0,1|2,0,1"
    with pytest.raises(KummerError):
        kummer_radical(2, 0)
    with pytest.raises(KummerError):
        kummer_radical(5, 2)


# ---------------------------------------------------------------------------
# C3 codec
# ---------------------------------------------------------------------------

def test_c3_encode_paper_example():
    # [DERIVED] D = 5, delta = (1+sqrt(-15))/4 -> x^3 - 3x - 1/2
    cc = CoclassC3(SquareClass(5), QuadElem.of(-15, F(1, 4), F(1, 4)))
    L = c3_encode(cc)
    assert L.to_text() == "-1/2,-3,0,1"
    assert quadratic_resolvent(L).rep == 5


def test_c3_encode_trivial():
    cc = CoclassC3(SquareClass(5), QuadElem.of(-15, 1, 0))
    assert c3_encode(cc).to_text() == "0,1|-5,0,1"
    ccm = CoclassC3(SquareClass(5), QuadElem.of(-15, -1, 0))
    assert c3_encode(ccm).to_text() == "0,1|-5,0,1"  # -1 is a cube


def test_c3_encode_split_kummer():
    # [DERIVED] D = -3, pure Kummer datum u = 2 -> x^3 - 3x - 5/2 = Q(cbrt2)
    u = F(2)
    cc = CoclassC3(SquareClass(-3),
                   QuadElem.of(1, (u + 1 / u) / 2, (u - 1 / u) / 2))
    L = c3_encode(cc)
    assert L.to_text() == "-5/2,-3,0,1"
    assert fields_isomorphic(L.factors[0], P([-2, 0, 0, 1]))


def test_c3_encode_invalid_norm():
    with pytest.raises(KummerError):
        CoclassC3(SquareClass(5), QuadElem.of(-15, 2, 0))


def test_c3_decode_examples():
    cc, ambiguous = c3_decode(EtaleAlgebra.from_poly(P([-F(1, 2), -3, 0, 1])))
    assert ambiguous
    assert cc.D.rep == 5
    assert cc.delta in (QuadElem.of(-15, F(1, 4), F(1, 4)),
                        QuadElem.of(-15, F(1, 4), -F(1, 4)))
    cc2, _ = c3_decode(EtaleAlgebra.from_poly(P([-2, 0, 0, 1])))
    assert cc2.D.rep == -3
    assert cc2.delta.x + cc2.delta.y == 2  # pure Kummer u = 2
    cc3, amb3 = c3_decode(EtaleAlgebra.from_text("0,1|-7,0,1"))
    assert not amb3 and cc3.delta == QuadElem.of(-21, 1, 0)


def test_c3_round_trips_random():
    rng = random.Random(3)
    done = 0
    while done < 15:
        D = squarefree_part(rng.choice([1, 2, 3, 5, -1, -2, 7, 10, -7, 6]))
        d = squarefree_part(-3 * D)
        p = rng.randint(1, 5) * rng.choice([1, -1])
        q = rng.randint(1, 5)
        z = QuadElem.of(d, p, q)
        if z.norm() == 0:
            continue
        delta = norm_one(d, p, q)
        cc = CoclassC3(SquareClass(D), delta)
        L = c3_encode(cc)
        assert quadratic_resolvent(L).rep == D
        back, _ = c3_decode(L)
        assert back.D.rep == D
        if len(L.factors) == 1:
            assert back.delta in (delta, delta.conj())
        # algebra-level identity: encode(decode(L)) isomorphic to L
        assert c3_encode(back).isomorphic(L)
        done += 1


def test_c3_add_law():
    a = CoclassC3(SquareClass(5), QuadElem.of(-15, F(1, 4), F(1, 4)))
    # a + 0 = a
    zero = CoclassC3(SquareClass(5), QuadElem.of(-15, 1, 0))
    assert c3_add(a, zero).delta == a.delta
    # a + conj(a) = 0-class -> split algebra
    conj = CoclassC3(a.D, a.delta.conj())
    assert c3_encode(c3_add(a, conj)).to_text() == "0,1|-5,0,1"
    # doubling: delta^2 = (-7+sqrt(-15))/8, trace -7/4
    # [DERIVED: exact squaring; verified by the numeric subalgebra oracle]
    s = c3_add(a, a)
    assert s.delta == QuadElem.of(-15, -F(7, 8), F(1, 8))
    assert c3_encode(s).to_text() == "7/4,-3,0,1"
    with pytest.raises(KummerError):
        c3_add(a, CoclassC3(SquareClass(2), QuadElem.of(-6, 1, 0)))


def _cube_datum_roots(L: EtaleAlgebra):
    """Numeric u-values with u + 1/u running over the roots of L."""
    out = []
    for ball in numeric_roots(L.defining_poly(), precision_bits=64):
        th = mp.mpc(ball.mid)
        u = (th + mp.sqrt(th * th - 4)) / 2
        out.extend([u, 1 / u])
    return out


def test_c3_group_law_tensor_oracle():
    # [DERIVED] roots of encode(d1*d2) are among u_i u_j + (u_i u_j)^-1
    rng = random.Random(9)
    with mp.workprec(200):
        for _ in range(5):
            D = rng.choice([5, 2, -1, 13])
            d = squarefree_part(-3 * D)
            d1 = norm_one(d, rng.randint(1, 6), rng.randint(1, 6))
            d2 = norm_one(d, rng.randint(-6, -1), rng.randint(1, 6))
            a = CoclassC3(SquareClass(D), d1)
            b = CoclassC3(SquareClass(D), d2)
            L1, L2 = c3_encode(a), c3_encode(b)
            Ls = c3_encode(c3_add(a, b))
            us = _cube_datum_roots(L1)
            vs = _cube_datum_roots(L2)
            cands = [u * v + 1 / (u * v) for u in us for v in vs]
            for ball in numeric_roots(Ls.defining_poly(), precision_bits=64):
                th = mp.mpc(ball.mid)
                err = min(abs(th - c) for c in cands)
                assert err < mp.mpf(2) ** -50


# ---------------------------------------------------------------------------
# V4 codec
# ---------------------------------------------------------------------------

Q3 = EtaleAlgebra.from_text("0,1|0,1|0,1")


def test_v4_encode_trivial():
    # [TRIVIAL] (x-3)(x+1)^3 degenerates; zero coclass returns Q^4
    L = v4_encode(CoclassV4(Q3, (1, 1, 1)))
    assert L.canonical().to_text() == "0,1|0,1|0,1|0,1"


def test_v4_encode_spec_value():
    # [DERIVED] delta = (2;3;1/6) -> x^4 - (31/3)x^2 - 8x - 23/36
    L = v4_encode(CoclassV4(Q3, (2, 3, F(1, 6))))
    assert L.to_text() == "-23/36,-8,-31/3,0,1"
    assert galois_group(L) == "V4"
    # the field is Q(sqrt2, sqrt3)
    from coclass.exactpoly import has_root_in_extension
    assert has_root_in_extension(P([-2, 0, 1]), L.factors[0])
    assert has_root_in_extension(P([-3, 0, 1]), L.factors[0])


def test_v4_encode_mixed_resolvent():
    # R = Q x Q[sqrt(17)]: resolvent of the output has one rational root
    R = EtaleAlgebra.from_text("0,1|-17,0,1")
    w = RationalPoly([F(1), F(1)])  # 1 + sqrt17, norm -16
    delta = (F(1, -16), w)
    cc = CoclassV4(R, delta)
    assert cc.norm() == 1
    L = v4_encode(cc)
    assert len(L.factors) == 1
    res = cubic_resolvent(L.factors[0])
    assert sorted(f.degree for f in res.factors) == [1, 2]
    assert res.isomorphic(R)


def test_v4_norm_validation():
    with pytest.raises(KummerError):
        CoclassV4(Q3, (2, 3, 1))


def test_v4_decode_spec_value():
    cc = v4_decode(P([-F(23, 36), -8, -F(31, 3), 0, 1]))
    assert cc.norm() == 1
    # delta ~ (2;3;1/6) up to squares and coordinate permutation
    classes = sorted(squarefree_part(d(F(-f[0])))
                     for d, f in zip(cc.delta, cc.R.factors))
    assert classes == [2, 3, 6]


def test_v4_round_trips():
    rng = random.Random(7)
    done = 0
    while done < 10:
        x = F(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice([1, -1])
        y = F(rng.randint(1, 6), rng.randint(1, 4))
        cc = CoclassV4(Q3, (x, y, 1 / (x * y)))
        L = v4_encode(cc)
        assert cubic_resolvent(L.defining_poly() if len(L.factors) > 1
                               else L.factors[0]).isomorphic(Q3) \
            if len(L.factors) == 1 else True
        back = v4_decode(L)
        assert v4_encode(back).isomorphic(L)
        done += 1


def test_v4_decode_irreducible_resolvent():
    # [DERIVED] x^4+x+1 has irreducible resolvent x^3-4x-1
    cc = v4_decode(P([1, 1, 0, 0, 1]))
    assert cc.R.to_text() == "-1,-4,0,1"
    re = v4_encode(cc)
    assert len(re.factors) == 1
    assert fields_isomorphic(re.factors[0], P([1, 1, 0, 0, 1]))


def test_v4_decode_q4():
    cc = v4_decode(EtaleAlgebra.from_text("0,1|0,1|0,1|0,1"))
    L = v4_encode(cc)
    assert L.canonical().to_text() == "0,1|0,1|0,1|0,1"


# ---------------------------------------------------------------------------
# C4 codec
# ---------------------------------------------------------------------------

def test_c4_encode_paper_field():
    # [PAPER] (D, alpha, c) = (14, -5/4 + (1/2)sqrt(-14), 3/2): norm 81/16
    cc = CoclassC4(SquareClass(14), F(-5, 4), F(1, 2), F(3, 2))
    assert cc.alpha.norm() == F(81, 16) == cc.c ** 4
    assert c4_encode(cc).to_text() == "7,0,-6,0,1"


def test_c4_encode_special_data():
    # [PAPER] (-4, 2) gives K[sqrt(D)] x K[sqrt(D)]
    for D in (2, 3, 5, 14):
        L = c4_encode(CoclassC4(SquareClass(D), F(-4), F(0), F(2)))
        assert L.to_text() == f"-{D},0,1|-{D},0,1"
    # [TRIVIAL] (1, 1) gives L0 = Q x Q x Q[sqrt(D)]
    L0 = c4_encode(CoclassC4(SquareClass(14), F(1), F(0), F(1)))
    assert L0.to_text() == "0,1|0,1|-14,0,1"


def test_c4_invariant_validation():
    with pytest.raises(KummerError):
        CoclassC4(SquareClass(14), F(1), F(1), F(1))
    with pytest.raises(KummerError):
        CoclassC4(SquareClass(2), F(0), F(0), F(1))


def test_c4_decode_examples():
    cc = c4_decode(P([7, 0, -6, 0, 1]))
    assert (cc.D.rep, cc.a, cc.b, cc.c) == (14, F(-5, 4), F(1, 2), F(3, 2))
    split = c4_decode(EtaleAlgebra.from_text("-2,0,1|-2,0,1"))
    assert (split.D.rep, split.a, split.b, split.c) == (2, -4, 0, 2)
    triv = c4_decode(EtaleAlgebra.from_text("0,1|1,1|-14,0,1"))
    assert (triv.D.rep, triv.a, triv.b, triv.c) == (14, 1, 0, 1)


def test_c4_decode_products_of_two_quadratic_fields():
    # Q(sqrt(m1)) x Q(sqrt(m2)) decodes through the even model
    # (x^2 - m1)(x^2 - 4 m2) and re-encodes to the same algebra
    ms = [2, 3, 5, 6, 7, -1, -2, -3, -5, -6, 10, -10, 15]
    pairs = [(m1, m2) for m1 in ms for m2 in ms if m1 != m2]
    assert len(pairs) == 156
    for m1, m2 in pairs:
        L = EtaleAlgebra.from_text(f"{-m1},0,1|{-m2},0,1")
        back = c4_decode(L)
        assert back.D.rep == squarefree_part(m1 * m2), (m1, m2)
        assert c4_encode(back).isomorphic(L), (m1, m2)


def test_c4_decode_unsupported():
    from coclass.etalealg import UnsupportedStructure
    with pytest.raises(UnsupportedStructure):
        c4_decode(EtaleAlgebra.from_text("0,1|-2,0,0,1"))  # Q x cubic


@pytest.mark.parametrize("text,D", [("64,0,-8,0,1", -3), ("1,0,0,0,1", -2)])
def test_c4_decode_past_a_degenerate_resolvent_root(text, D):
    # V4 fields: at 64,0,-8,0,1 the least resolvent root gives b = 0 and
    # the root -8 a model; at x^4 + 1 every root gives b = 0 or c = 0, and
    # the primitive element theta + theta^2 gives a model
    L = EtaleAlgebra.from_poly(RationalPoly.from_text(text))
    back = c4_decode(L)
    assert back.D.rep == D and back.b != 0 and back.c != 0
    assert c4_encode(back).isomorphic(L)


def test_quartic_decoders_depress_each_polynomial_once(monkeypatch):
    # the resolvent is read from the depressed coefficients, so no quartic
    # is depressed twice, also across a change of primitive element
    seen = []
    depress = kummerh1.depress_quartic

    def spy(f):
        seen.append(f.monic())
        return depress(f)

    monkeypatch.setattr(kummerh1, "depress_quartic", spy)
    monkeypatch.setattr(etalealg, "depress_quartic", spy)
    for decode, text, polys in [(c4_decode, "7,0,-6,0,1", 1), (c4_decode, "1,1,1,1,1", 1),
                                (c4_decode, "64,0,-8,0,1", 1), (c4_decode, "1,0,0,0,1", 2),
                                (v4_decode, "1,0,-10,0,1", 2), (v4_decode, "-2,-1,0,0,1", 1)]:
        seen.clear()
        decode(RationalPoly.from_text(text))
        assert len(seen) == len(set(seen)) == polys, (text, seen)


def test_c4_add_identities():
    a = CoclassC4(SquareClass(14), F(-5, 4), F(1, 2), F(3, 2))
    triv = CoclassC4(SquareClass(14), F(1), F(0), F(1))
    s = c4_add(a, triv)
    assert (s.a, s.b, s.c) == (a.a, a.b, a.c)
    # a + conj(a) = (N(alpha), c^2) = (c^4, c^2): trivial class
    conj = CoclassC4(a.D, a.a, -a.b, a.c)
    t = c4_add(a, conj)
    assert t.b == 0 and t.a == t.c ** 2
    assert c4_encode(t).to_text() == "0,1|0,1|-14,0,1"
    with pytest.raises(KummerError):
        c4_add(a, CoclassC4(SquareClass(2), F(1), F(0), F(1)))


def test_c4_mirror_translation():
    # [PAPER] datum + (-4,2): c' = 2c, a' = -4a
    a = c4_decode(P([7, 0, -6, 0, 1]))
    special = CoclassC4(a.D, F(-4), F(0), F(2))
    m = c4_add(a, special)
    assert (m.a, m.b, m.c) == (5, -2, 3)  # -4*(-5/4+..)= 5-2sqrt(-14), 2*3/2
    assert c4_encode(m).to_text() == "8,0,-12,0,1"


def test_c4_round_trips_random():
    rng = random.Random(17)
    done = 0
    while done < 10:
        D = squarefree_part(rng.choice([2, 3, 5, 7, 14, 10, -1, -2]))
        u, v = rng.randint(-3, 3), rng.randint(1, 3)
        beta = QuadElem.of(-D, u, v)
        if beta.norm() == 0:
            continue
        al = beta ** 4
        c = beta.norm()
        if rng.random() < 0.5:
            al, c = al * (-4), 2 * c  # shift off the trivial class
        try:
            cc = CoclassC4(SquareClass(D), al.x, al.y, c)
        except KummerError:
            continue
        L = c4_encode(cc)
        back = c4_decode(L)
        assert back.D.rep == D
        assert c4_encode(back).isomorphic(L)
        done += 1



@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 3, 5, 6, 7, 10, 14, -2, -3, -5, -7)),
       st.integers(1, 4), st.integers(1, 3), st.sampled_from((1, -1)),
       st.sampled_from((1, -1)), st.fractions(-4, 4, max_denominator=3))
def test_c4_decode_then_encode_is_isomorphic(D, u, v, su, sv, c):
    # alpha = (c^2 / N(beta)) beta^2 with beta = u + v sqrt(-D), drawn as the
    # codec-roundtrip benchmark draws it; every shape of L is kept
    u, v = su * u, sv * v
    n = u * u + D * v * v
    assume(n != 0 and c != 0)
    k = c * c / n
    L = c4_encode(CoclassC4(SquareClass(D), k * (u * u - D * v * v), k * 2 * u * v, c))
    assert c4_encode(c4_decode(L)).isomorphic(L)


@pytest.mark.parametrize("coeffs", [
    "64,0,-8,0,1", "1,0,0,0,1", "1,0,-10,0,1",
    pytest.param("5,0,0,0,1", marks=pytest.mark.xfail(
        raises=etalealg.UnsupportedStructure, strict=True,
        reason="FOUND in CHANGES.md: kummerh1._c4_model has no model for "
               "x^4 + 5, degenerate biquadratic model (c = 0)"))])
def test_c4_decode_then_encode_examples(coeffs):
    L = EtaleAlgebra.from_text(coeffs)
    assert c4_encode(c4_decode(L)).isomorphic(L)

def _resolvent_root_data(rng, big):
    """Seeded (p, q, r, y1), y1 a rational root of the resolvent
    (y - p)(y^2 - 4r) - q^2 of x^4 + p x^2 + q x + r: y1 = p with q = 0
    for half of them, else y1 - p = k t^2 with q free and r solved for.
    The oracle takes the square class of y1 - p, or of y1^2 - 4r = k t^2
    when y1 = p, by trial division, so t is a product of small primes,
    past 2^32 when `big`, with p and q past 2^64."""
    bound = 2 ** 70 if big else 30
    p = F(rng.randint(-bound, bound), rng.randint(1, 4))
    k = rng.choice([1, 2, 3, 5, 6, 7, 10, 14, -1, -2, -3, -5, -7])
    if big:
        t = F(2 ** rng.randint(4, 12) * 3 ** rng.randint(4, 9)
              * 5 ** rng.randint(2, 6) * 7 ** rng.randint(2, 6),
              rng.choice([1, 2, 3, 5]))
    else:
        t = F(rng.randint(1, 6), rng.randint(1, 4))
    if rng.random() < 0.5:
        return p, F(0), (p * p - k * t * t) / 4, p
    y1 = p + k * t * t
    q = F(rng.randint(-bound, bound), rng.randint(1, 3))
    return p, q, (y1 * y1 - q * q / (y1 - p)) / 4, y1


@pytest.mark.parametrize("big", [False, True], ids=["small", "past 2^64"])
def test_c4_model_closed_form_matches_the_quadratic_field(big):
    # _c4_model_at reads (a, c) from tr(w) and N(w) in closed form; the
    # oracle computes w = u^2 - 4v in Q(sqrt d_E) with QuadElem arithmetic
    rng = random.Random(28 + big)
    branches = Counter()
    for _ in range(300):
        p, q, r, y1 = _resolvent_root_data(rng, big)
        assert _resolvent_of_depressed(p, q, r)(y1) == 0
        branches[y1 == p] += 1
        assert kummerh1._c4_model_at(p, q, r, y1) == \
            c4_model_in_quadratic_field(p, q, r, y1)
    assert min(branches[True], branches[False]) > 100


def test_c4_model_closed_form_on_encoded_quartics():
    # every rational resolvent root of the quartics that the benchmark's
    # C4 draws encode to, biquadratic with the root y1 = p, of their
    # changes of primitive element theta -> theta + t theta^2 that
    # c4_decode may take, and of more biquadratics x^4 + p x^2 + r
    rng = random.Random(41)
    quartics = [f for f in (c4_encode(corpus._random_c4(rng)).factors[0]
                            for _ in range(40)) if f.degree == 4]
    quartics = [g for f in quartics for g in kummerh1._models(f)] + [
        P([r, 0, p, 0, 1]) for p in range(-6, 7) for r in (-3, 2, 5, 7)]
    branches = Counter()
    for f in quartics:
        p, q, r, _ = depress_quartic(f)
        for h, _ in factor_rationals(_resolvent_of_depressed(p, q, r)):
            y1 = -h[0] / h[1] if h.degree == 1 else None
            if y1 is None or y1 == p and y1 * y1 == 4 * r:
                continue  # no root, or no square class of 0 for the oracle
            branches[y1 == p] += 1
            assert kummerh1._c4_model_at(p, q, r, y1) == \
                c4_model_in_quadratic_field(p, q, r, y1)
    assert branches[True] > 20 and branches[False] > 20


def test_encoders_hand_on_squarefree_polynomials(monkeypatch):
    # c3_encode and c4_encode leave squarefreeness to the data:
    # x^3 - 3x - t has discriminant 27 (4 - t^2), and t = +-2 only for
    # delta = +-1, encoded without it; x^4 - 4c x^2 + 2c^2 - 2a is
    # squarefree unless a = +-c^2, that is b = 0, which never reaches it
    seen = []
    real = EtaleAlgebra.from_poly

    def spy(f):
        seen.append(f)
        return real(f)
    monkeypatch.setattr(EtaleAlgebra, "from_poly", staticmethod(spy))
    rng = random.Random(28)
    for _ in range(100):
        D = rng.choice([1, 2, 3, 5, 6, 7, 10, -1, -2, -3])
        d = squarefree_part(-3 * D)
        x, y = rng.randint(-9, 9), F(rng.randint(0, 6), rng.randint(1, 6))
        if QuadElem.of(d, x, y).norm():
            c3_encode(CoclassC3(D, norm_one(d, x, y)))
    for _ in range(100):
        D = rng.choice([1, 2, 3, 5, 14, -1, -2])
        beta = QuadElem.of(-D, rng.randint(-4, 4), rng.randint(-3, 3))
        n = beta.norm()
        if n == 0:
            continue
        c = F(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))
        al = beta * beta * (c * c / n)
        c4_encode(CoclassC4(D, al.x, al.y, c))
        # and b = 0: a = c^2 (the trivial class) or a = -c^2
        c4_encode(CoclassC4(D, rng.choice((1, -1)) * c * c, 0, c))
    assert len(seen) > 200
    assert all(is_squarefree(f) for f in seen)


def _frobenius_type(ints, p):
    """The factor degrees of the integer quartic ints modulo p, by complete
    Cantor-Zassenhaus factoring, or None where it has bad reduction."""
    fp = modp.gf_from_int_poly(ints, p)
    if len(fp) != 5 or not modp.gf_is_squarefree(fp, p):
        return None
    pieces = modp._distinct_degree(modp.gf_monic(fp, p), p)
    return tuple(sorted((len(g) - 1 for g in modp.gf_factor_squarefree(pieces, p)),
                        reverse=True))


def test_c4_encode_frobenius_lies_in_hol_z4():
    # Hol(Z/4) = D4 in Sym(4): x -> u x + t acting on the roots, with
    # u = +-1 the twist character of Q(sqrt(D)).  Its 4-cycles and the
    # identity have u = 1, so p splits in Q(sqrt(D)); its elements of
    # type 2.1.1 have u = -1, so p is inert; it has no 3-cycle.  Only the
    # encoded quartic is read, at primes p not dividing 2D of good reduction
    rng = random.Random(23)
    twists = (1, 2, 3, 5, 6, 7, 10, 14, -2, -3, -5, -7)
    primes = [q for q in range(3, 150) if all(q % d for d in range(2, q))]
    seen = Counter()
    for _ in range(150):
        D = rng.choice(twists)
        beta = QuadElem.of(-D, rng.choice((1, -1)) * rng.randint(1, 4),
                           rng.choice((1, -1)) * rng.randint(1, 3))
        c = F(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))
        al = beta * beta * (c * c / beta.norm())
        cc = CoclassC4(SquareClass.of(D), al.x, al.y, c)
        _, fz = c4_encode(cc).defining_poly().monic().primitive_int()
        ints = [int(x) for x in fz.coeffs]
        for p in primes:
            if (2 * D) % p == 0 or (t := _frobenius_type(ints, p)) is None:
                continue
            split = pow(D % p, (p - 1) // 2, p) == 1
            assert t != (3, 1), (cc, p)
            if t in ((4,), (1, 1, 1, 1)):
                assert split, (cc, p, t)
            elif t == (2, 1, 1):
                assert not split, (cc, p, t)
            seen[t] += 1
    assert set(seen) == {(4,), (1, 1, 1, 1), (2, 1, 1), (2, 2)}, seen
    assert sum(seen.values()) > 3000, seen


# ---------------------------------------------------------------------------
# Tate-dual twisting
# ---------------------------------------------------------------------------

def test_tate_dual_twist():
    assert tate_dual_twist(SquareClass(1)).rep == -3   # [PAPER] mu_3 case
    assert tate_dual_twist(SquareClass(-3)).rep == 1   # [TRIVIAL] 9 square
    for D in (1, 2, -5, 7, 30):
        cls = SquareClass.of(D)
        assert tate_dual_twist(tate_dual_twist(cls)) == cls


def test_mu_power_dual():
    assert mu_power_dual(1, 7) == 0
    assert mu_power_dual(0, 7) == 1
    assert mu_power_dual(2, 7) == 5
    with pytest.raises(KummerError):
        mu_power_dual(1, 2)
