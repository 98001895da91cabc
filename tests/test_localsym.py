"""Tests for coclass.localsym.

The Hilbert symbol is checked exhaustively against the independent conic
oracle; class enumerations are checked against brute-force power-residue
enumeration; pairing matrices are checked for bilinearity, nondegeneracy,
and well-definedness under change of representatives.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from coclass import _kernels, localsym
from coclass.etalealg import EtaleAlgebra
from coclass.exactpoly import modp
from coclass.kummerh1 import CoclassC3, CoclassV4, QuadElem
from coclass.localsym import (
    LocalClass,
    LocalFieldDesc,
    LocalSymError,
    Place,
    SymbolValue,
    UnsupportedLocal,
    conic_has_point,
    cube_classes,
    enumerate_h1_local,
    hilbert2,
    is_square_padic,
    sqrt_padic,
    square_class,
    square_classes,
    tate_pair_c3,
    tate_pair_v4,
    unit_part_mod,
    vp,
)
from helpers import cube_class, hilbert_etale, localize, residue_field, tame_symbol

F = Fraction


# ---------------------------------------------------------------------------
# basic types and p-adic utilities
# ---------------------------------------------------------------------------

def test_place_validation():
    assert Place(7).p == 7
    assert Place.real().is_real
    with pytest.raises(LocalSymError):
        Place(6)


def test_local_field_desc_tame_only():
    assert LocalFieldDesc(5, 2).q == 25
    with pytest.raises(UnsupportedLocal):
        LocalFieldDesc(3, 1, 3)  # wild: p | e
    with pytest.raises(UnsupportedLocal):
        LocalFieldDesc(5, 4)


def test_symbol_value_arithmetic():
    a, b = SymbolValue(3, 1), SymbolValue(3, 2)
    assert (a * b).is_trivial()
    assert a.inverse() == b
    assert a.to_str() == "zeta3^1"
    assert SymbolValue(2, 1).to_str() == "-1"


def _vp_by_definition(x, p):
    """The v with x / p^v a p-adic unit, found by trying each v."""
    x = F(x)
    for v in range(-40, 41):
        u = x / F(p) ** v
        if u.numerator % p and u.denominator % p:
            return v
    raise AssertionError("valuation out of range")


def _unit_part_by_search(x, p, k):
    """The residue r mod p^k with r = x / p^v(x), by trying every r."""
    u = F(x) / F(p) ** _vp_by_definition(x, p)
    m = p ** k
    return next(r for r in range(m)
                if (r * u.denominator - u.numerator) % m == 0)


def test_vp_and_unit_part():
    assert vp(F(50), 5) == 2
    assert vp(F(3, 25), 5) == -2
    assert unit_part_mod(F(50), 5) == 2
    assert unit_part_mod(F(-1), 2, 3) == 7
    rng = random.Random(29)
    for p in (2, 3, 13):
        for _ in range(60):
            num = rng.choice((1, -1)) * p ** rng.randint(0, 4) * rng.randint(1, 500)
            den = p ** rng.randint(0, 4) * rng.randint(1, 500)
            for x in (num, F(num, den)):
                assert vp(x, p) == _vp_by_definition(x, p), (x, p)
                for k in (1, 3):
                    assert unit_part_mod(x, p, k) == \
                        _unit_part_by_search(x, p, k), (x, p, k)
    for zero in (0, F(0)):
        with pytest.raises(LocalSymError):
            vp(zero, 3)
        with pytest.raises(LocalSymError):
            unit_part_mod(zero, 3)


def test_sqrt_padic_squares():
    # [TRIVIAL: verified by squaring at the stated precision]
    for x, p in [(F(2), 7), (F(-3), 7), (F(6), 5), (F(44), 5)]:
        t = sqrt_padic(x, p)
        assert vp(t * t - x, p) >= 50
    with pytest.raises(LocalSymError):
        sqrt_padic(F(2), 5)  # 2 is not a square mod 5


# ---------------------------------------------------------------------------
# class enumerations vs brute power-residue oracles
# ---------------------------------------------------------------------------

def _brute_unit_power(u, p, k, n):
    """Is the unit u an n-th power mod p^k?  Independent oracle."""
    m = p ** k
    u %= m
    return any(pow(x, n, m) == u for x in range(1, m) if x % p)


def test_square_classes_p5():
    # [DERIVED: brute enumeration of squares mod 5^3]
    reps = [c.rep for c in square_classes(Place(5))]
    assert reps == [1, 2, 5, 10]
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            r = F(a) / F(b)
            if vp(r, 5) % 2:
                continue  # distinct valuations: distinct classes
            assert not _brute_unit_power(unit_part_mod(r, 5, 3), 5, 3, 2)


def test_square_classes_p2_and_real():
    assert len(square_classes(Place(2))) == 8
    assert [c.rep for c in square_classes(Place.real())] == [1, -1]


def test_square_class_canonical():
    assert square_class(18, Place(5)) == square_class(2, Place(5))
    assert square_class(F(1, 10), Place(5)).rep == 10


def test_cube_classes_counts():
    # [DERIVED: brute enumeration mod 5^3 / 7^4]
    assert [c.rep for c in cube_classes(LocalFieldDesc(5))] == [1, 5, 25]
    reps7 = [c.rep for c in cube_classes(LocalFieldDesc(7))]
    assert len(reps7) == 9
    for i, a in enumerate(reps7):
        for b in reps7[i + 1:]:
            r = F(a) / F(b)
            if vp(r, 7) % 3:
                continue
            assert not _brute_unit_power(unit_part_mod(r, 7, 4), 7, 4, 3)
    with pytest.raises(UnsupportedLocal):
        cube_classes(LocalFieldDesc(3))
    # q = 25 = 1 mod 3 gives nine classes, but F_5^x lies in the cubes of
    # F_25^x, so no rational represents a nontrivial unit class
    with pytest.raises(UnsupportedLocal, match="extension fields"):
        cube_classes(LocalFieldDesc(5, 2))


def test_cube_class_reduction():
    assert cube_class(F(16), LocalFieldDesc(7)).unit_part == \
        cube_class(F(2), LocalFieldDesc(7)).unit_part
    assert cube_class(F(7, 2), LocalFieldDesc(7)).valuation == 1


# ---------------------------------------------------------------------------
# Hilbert symbol and conic oracle
# ---------------------------------------------------------------------------

def test_hilbert2_spec_values():
    assert hilbert2(1, 17, Place(5)).is_trivial()  # [TRIVIAL]
    assert hilbert2(2, 5, Place(5)).to_str() == "-1"
    assert hilbert2(-1, -1, Place.real()).to_str() == "-1"


def test_conic_spec_values():
    assert conic_has_point(1, 1, Place(13))      # [TRIVIAL: (1,0,1)]
    assert conic_has_point(1, 1, Place.real())
    assert not conic_has_point(2, 5, Place(5))
    assert not conic_has_point(-1, -1, Place(2))


def test_hilbert_equals_conic_exhaustive():
    # the closed formula agrees with the search oracle on all class pairs
    places = [Place(p) for p in (2, 3, 5, 7, 13)] + [Place.real()]
    for pl in places:
        for a in [c.rep for c in square_classes(pl)]:
            for b in [c.rep for c in square_classes(pl)]:
                assert hilbert2(a, b, pl).is_trivial() == \
                    conic_has_point(a, b, pl), (pl, a, b)


def _conic_by_scan(a, b, p, k):
    """Whether a x^2 + b y^2 is a square mod p^k for some (x, y) not both
    divisible by p, trying every pair."""
    m = p ** k
    squares = {z * z % m for z in range(m)}
    return any((a * x * x + b * y * y) % m in squares
               for x in range(m) for y in range(m) if x % p or y % p)


@pytest.mark.parametrize("block", [1, 7, None])
def test_conic_search_matches_scan_for_any_block(block, monkeypatch):
    # the block size of the sums only changes when the search stops
    if block is not None:
        monkeypatch.setattr(_kernels, "_BLOCK", block)
    for p in (2, 3, 5, 7):
        reps = [int(c.rep) for c in square_classes(Place(p))]
        for a in reps:
            for b in reps:
                k = 3 + 2 * vp(2 * a * b, 2) if p == 2 else 3
                assert _kernels.conic_search(a, b, p, k) == \
                    _conic_by_scan(a, b, p, k), (p, a, b, block)


@pytest.mark.parametrize("p", [29, 31])
def test_conic_search_memory_stays_bounded(p):
    # all (p^3)^2 sums at once would take gigabytes at these primes
    tracemalloc.start()
    try:
        found = conic_has_point(3, p, Place(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == hilbert2(3, p, Place(p)).is_trivial()
    assert peak < 8 * 2 ** 20


def test_hilbert2_bilinear_symmetric():
    for p in (2, 3, 5):
        pl = Place(p)
        reps = [c.rep for c in square_classes(pl)]
        for a in reps:
            for b in reps:
                assert hilbert2(a, b, pl) == hilbert2(b, a, pl)
                for a2 in reps:
                    assert hilbert2(a * a2, b, pl) == \
                        hilbert2(a, b, pl) * hilbert2(a2, b, pl)


def test_hilbert2_a_minus_a():
    # <a, -a> = +1 always (the conic has the point (1, 1, 0) rationally)
    for p in (2, 3, 5, 7, 13):
        pl = Place(p)
        for a in [c.rep for c in square_classes(pl)]:
            assert hilbert2(a, -a, pl).is_trivial()


def test_product_formula():
    rng = random.Random(17)
    for _ in range(50):
        a = rng.choice([1, -1]) * rng.randint(1, 400)
        b = rng.choice([1, -1]) * rng.randint(1, 400)
        bad = {2} | {q for q in range(2, 401) if
                     all(q % d for d in range(2, q)) and (a * b) % q == 0}
        total = hilbert2(a, b, Place.real()).k
        for q in bad:
            total += hilbert2(a, b, Place(q)).k
        assert total % 2 == 0, (a, b)


# ---------------------------------------------------------------------------
# tame symbols over residue fields
# ---------------------------------------------------------------------------

def test_tame_symbol_unramified_q25():
    # [DERIVED: residue-field exponentiation] <u, pi> = -1 for a
    # non-square unit u of F_25
    FD = LocalFieldDesc(5, 2)
    g = list(residue_field(5, 2))
    u = next(e for e in ([i, j] for i in range(5) for j in range(1, 5))
             if modp.gf_pow_mod(e, 12, g, 5) != [1])
    assert tame_symbol(FD, (0, u), 5, 2).to_str() == "-1"
    # squares pair trivially with pi
    sq = modp.gf_rem(modp.gf_mul(u, u, 5), g, 5)
    assert tame_symbol(FD, (0, sq), 5, 2).is_trivial()


def test_tame_symbol_m3_spec():
    # [DERIVED] <7,7> over Q_7: residue cube character of -1 -> +1
    assert tame_symbol(LocalFieldDesc(7), 7, 7, 3).is_trivial()
    # units pair trivially  [TRIVIAL: exponent zero]
    assert tame_symbol(LocalFieldDesc(7), 2, 3, 3).is_trivial()
    assert tame_symbol(LocalFieldDesc(13, 2), 5, 6, 3).is_trivial()


def test_tame_symbol_wild_rejected():
    with pytest.raises(UnsupportedLocal):
        tame_symbol(LocalFieldDesc(3), 2, 3, 3)
    with pytest.raises(UnsupportedLocal):
        tame_symbol(LocalFieldDesc(2, 2), (0, [1, 1]), 2, 2)


def test_tame_symbol_matches_hilbert_on_qp():
    for p in (3, 5, 7, 13):
        pl = Place(p)
        for a in [c.rep for c in square_classes(pl)]:
            for b in [c.rep for c in square_classes(pl)]:
                assert tame_symbol(LocalFieldDesc(p), a, b, 2) == \
                    hilbert2(a, b, pl)


def test_hilbert_etale():
    fields = [LocalFieldDesc(5)] * 3
    assert hilbert_etale(fields, [1, 1, 1], [1, 1, 1], 2).is_trivial()
    # split L = Q_5^3, a = (2;1;1), b = (5;1;1) -> -1
    assert hilbert_etale(fields, [2, 1, 1], [5, 1, 1], 2).to_str() == "-1"
    # two factors each contributing -1 -> +1
    assert hilbert_etale(fields, [2, 2, 1], [5, 5, 1], 2).is_trivial()
    with pytest.raises(LocalSymError):
        hilbert_etale(fields, [1, 1], [1, 1, 1], 2)


# ---------------------------------------------------------------------------
# Tate pairing, order-3 module
# ---------------------------------------------------------------------------

def test_tate_c3_trivial_sigma():
    for tau in (F(1), F(2), F(7)):
        assert tate_pair_c3(7, 1, F(1), tau).is_trivial()


def test_tate_c3_p7_perfect_pairing():
    # [DERIVED: full matrix enumeration] D = 1 at p = 7: both sides are
    # the 9 cube classes; the pairing matrix is perfect
    reps = [c.rep for c in cube_classes(LocalFieldDesc(7))]
    M = [[tate_pair_c3(7, 1, u, w).k for w in reps] for u in reps]
    assert len(set(tuple(r) for r in M)) == 9       # rows injective
    assert len(set(zip(*M))) == 9                   # columns injective
    assert M[0] == [0] * 9                          # identity row trivial


def test_tate_c3_bilinear_split():
    reps = [c.rep for c in cube_classes(LocalFieldDesc(7))]
    rng = random.Random(3)
    for _ in range(25):
        u1, u2, w = (rng.choice(reps) for _ in range(3))
        assert tate_pair_c3(7, 1, u1 * u2, w) == \
            tate_pair_c3(7, 1, u1, w) * tate_pair_c3(7, 1, u2, w)
        w1, w2, u = (rng.choice(reps) for _ in range(3))
        assert tate_pair_c3(7, 1, u, w1 * w2) == \
            tate_pair_c3(7, 1, u, w1) * tate_pair_c3(7, 1, u, w2)


def test_tate_c3_well_defined_split():
    reps = [c.rep for c in cube_classes(LocalFieldDesc(7))]
    for u in reps:
        assert tate_pair_c3(7, 1, u, F(2)) == \
            tate_pair_c3(7, 1, u * F(27), F(2))     # sigma times a cube
        assert tate_pair_c3(7, 1, u, F(2)) == \
            tate_pair_c3(7, 1, u, F(2 * 125))       # tau times a cube


ZETA6 = QuadElem.of(-3, F(-1, 2), F(1, 2))  # primitive cube root of unity


def test_tate_c3_nonsplit_dual_perfect():
    # [DERIVED] p = 5, D = 1: T' = Q_5(sqrt(-3)) is a field; sigma ranges
    # over the norm-one cube roots of unity, tau over {1, 5, 25}
    taus = (F(1), F(5), F(25))
    one = QuadElem.of(-3, F(1), F(0))
    rows = [tuple(tate_pair_c3(5, 1, s, t).k for t in taus)
            for s in (one, ZETA6, ZETA6 * ZETA6)]
    assert rows[0] == (0, 0, 0)
    assert len(set(rows)) == 3
    assert len(set(zip(*rows))) == 3


def test_zeta_search_runs_once_per_field(monkeypatch):
    # symbols are taken field by field; the search for zeta must not run
    # again for a field and m it has already seen
    searches = Counter()
    zeta = localsym._zeta

    def spy(p, modulus, m):
        searches[p, modulus, m] += 1
        return zeta(p, modulus, m)

    localsym._mu_logs.cache_clear()
    monkeypatch.setattr(localsym, "_zeta", spy)
    reps = [c.rep for c in cube_classes(LocalFieldDesc(7))]
    tables = [[[tate_pair_c3(7, 1, u, w).k for w in reps] for u in reps]
              for _ in range(2)]
    assert tables[0] == tables[1]
    # p = 5, D = 1: the symbol lives on the inert Q_5(sqrt(-3))
    sigmas = (ZETA6, ZETA6 * ZETA6)
    rows = [[tate_pair_c3(5, 1, s, t).k for s in sigmas for t in (F(5), F(25))]
            for _ in range(2)]
    assert rows[0] == rows[1] == [1, 2, 2, 1]
    assert searches == {(7, (0, 1), 3): 1, (5, (3, 0, 1), 3): 1}, searches


def test_tate_c3_field_cases_bilinear():
    # quartic branch: p = 5, D = 5 (both T and T' are ramified fields)
    sig = QuadElem.of(-15, F(1, 4), F(1, 4))   # norm 1
    tau = QuadElem.of(5, F(2), F(1))
    v = tate_pair_c3(5, 5, sig, tau)
    assert tate_pair_c3(5, 5, sig * sig, tau) == v * v
    assert tate_pair_c3(5, 5, sig, tau * tau) == v * v
    # inert-T branch at p = 7 (5 is a non-square mod 7, -3 is a square)
    tau7 = QuadElem.of(5, F(3), F(1))
    v7 = tate_pair_c3(7, 5, sig, tau7)
    assert tate_pair_c3(7, 5, sig * sig, tau7) == v7 * v7
    assert tate_pair_c3(7, 5, sig, tau7 * tau7) == v7 * v7


def test_tate_c3_well_defined_field_case():
    # replacing sigma by sigma * eta^3 (eta norm-one) fixes the value
    sig = QuadElem.of(-15, F(1, 4), F(1, 4))
    eta = QuadElem.of(-15, F(-1, 4), F(1, 4))
    tau = QuadElem.of(5, F(2), F(1))
    cube = eta * eta * eta
    assert tate_pair_c3(5, 5, sig * cube, tau) == tate_pair_c3(5, 5, sig, tau)


def test_tate_c3_wild_rejected():
    with pytest.raises(UnsupportedLocal):
        tate_pair_c3(3, 1, F(1), F(1))
    with pytest.raises(UnsupportedLocal):
        tate_pair_c3(2, 1, F(1), F(1))


# ---------------------------------------------------------------------------
# Tate pairing, C2 x C2 module
# ---------------------------------------------------------------------------

R3 = EtaleAlgebra.from_text("0,1|0,1|0,1")


def test_tate_v4_trivial_and_spec_value():
    assert tate_pair_v4(5, R3, (F(1), F(1), F(1)), (F(1), F(1), F(1))).is_trivial()
    # [DERIVED] <2,5><1/2,1/5><1,1> = (-1)(-1)(+1) = +1
    assert tate_pair_v4(5, R3, (F(2), F(1, 2), F(1)),
                        (F(5), F(1, 5), F(1))).is_trivial()
    assert tate_pair_v4(5, R3, (F(2), F(1), F(2)),
                        (F(5), F(1), F(1))).to_str() == "-1"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_tate_v4_matrix_bilinear_nondegenerate(p):
    # [DERIVED: matrix check] the 16 norm-one triples pair perfectly
    triples = enumerate_h1_local("v4", p)
    assert len(triples) == 16
    M = [[tate_pair_v4(p, R3, s, t).k for t in triples] for s in triples]
    assert len(set(tuple(r) for r in M)) == 16
    assert len(set(zip(*M))) == 16
    # bilinearity on a sample
    rng = random.Random(p)
    for _ in range(10):
        s1, s2, t = (rng.choice(triples) for _ in range(3))
        prod = tuple(a * b for a, b in zip(s1, s2))
        assert tate_pair_v4(p, R3, prod, t).k == \
            (tate_pair_v4(p, R3, s1, t).k + tate_pair_v4(p, R3, s2, t).k) % 2


def test_tate_v4_well_defined():
    s = (F(2), F(1, 2), F(1))
    t = (F(5), F(1, 5), F(1))
    s2 = (F(18), F(2), F(1))    # componentwise times squares (9, 4, 1)
    assert tate_pair_v4(5, R3, s, t) == tate_pair_v4(5, R3, s2, t)


def test_tate_v4_quadratic_factor():
    # R = Q x Q[sqrt(17)]: 17 is a square mod 13 (8^2 = 64 = 13*4+12...
    # actually 17 = 4 mod 13 = 2^2), so the factor splits 13-adically
    R = EtaleAlgebra.from_text("0,1|-17,0,1")
    s = (F(2), QuadElem.of(17, F(4), F(1)))   # norm 16 - 17 = -1... use 1
    s = (F(2), QuadElem.of(17, F(1), F(0)))
    t = (F(13), QuadElem.of(17, F(13), F(0)))
    v = tate_pair_v4(13, R, s, t)
    assert v == hilbert2(2, 13, Place(13)) * hilbert2(1, 13, Place(13)) * \
        hilbert2(1, 13, Place(13))


def test_tate_v4_wild_rejected():
    with pytest.raises(UnsupportedLocal):
        tate_pair_v4(2, R3, (F(1), F(1), F(1)), (F(1), F(1), F(1)))


# ---------------------------------------------------------------------------
# local H^1 enumeration and localization
# ---------------------------------------------------------------------------

def test_enumerate_h1_counts():
    assert len(enumerate_h1_local("c2", 5)) == 4
    assert len(enumerate_h1_local("c2", 2)) == 8
    assert enumerate_h1_local("mu3", 5) == [1, 5, 25]
    assert len(enumerate_h1_local("mu3", 7)) == 9
    triples = enumerate_h1_local("v4", 5)
    assert len(triples) == 16
    for a, b, c in triples:
        assert is_square_padic(F(a) * F(b) * F(c), 5)


def test_enumerate_h1_unsupported():
    with pytest.raises(UnsupportedLocal):
        enumerate_h1_local("mu3", 3)
    with pytest.raises(UnsupportedLocal):
        enumerate_h1_local("c3", 7, D=5)  # T' nonsplit at 7
    with pytest.raises(UnsupportedLocal):
        enumerate_h1_local("quaternion", 5)


def test_localize_c2():
    cls = localize(F(10), 5)
    assert cls.m == 2 and cls.valuation == 1 and cls.rep == 10
    assert localize(F(1), 5).rep == 1


def test_localize_c3_spec_example():
    # [DERIVED] D = 5, delta = (1 + sqrt(-15))/4 at p = 7: -15 = 6 is a
    # non-square mod 7, so T' is inert; the class is the residue cube
    # character of delta in F_49
    cc = CoclassC3(5, QuadElem.of(-15, F(1, 4), F(1, 4)))
    cls = localize(cc, 7)
    assert cls.m == 3 and cls.valuation == 0
    # oracle: delta's residue is (1 + s)/4 in F_49 = F_7[s], s^2 = -15;
    # its cube character exponent must match
    g = (-(-15) % 7, 0, 1)
    r = unit_part_mod(F(1, 4), 7)
    val = modp.gf_pow_mod([r, r], (49 - 1) // 3, list(g), 7)
    assert cls.unit_part == localsym._mu_logs(7, g, 3)[tuple(val)]


def test_localize_c3_split():
    # D = -3: T' = Q x Q globally; delta = (2, 1/2) encoded as x + y
    cc = CoclassC3(-3, QuadElem.of(1, F(5, 4), F(3, 4)))
    cls = localize(cc, 7)
    assert cls.m == 3
    assert cls.unit_part == cube_class(F(2), LocalFieldDesc(7)).unit_part


def test_localize_trivial_c3():
    cc = CoclassC3(5, QuadElem.of(-15, F(1), F(0)))
    cls = localize(cc, 7)
    assert cls.valuation == 0 and cls.unit_part == 0


def test_localize_v4_split():
    cc = CoclassV4(R3, (F(2), F(1, 2), F(1)))
    out = localize(cc, 5)
    assert [c.rep for c in out] == [2, 2, 1]
    with pytest.raises(UnsupportedLocal):
        localize(CoclassV4(EtaleAlgebra.from_text("0,1|-17,0,1"),
                           (F(1), F(1))), 5)


def test_localize_unsupported_type():
    with pytest.raises(UnsupportedLocal):
        localize("nonsense", 5)
