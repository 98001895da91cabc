"""Tests for coclass.groupcoh.

Expected cohomology orders were derived independently (hand enumeration of
Hom(C2,C2); brute-force scan of all 3^6 maps with the crossed-hom law for
(S3, C3-sign); restriction-corestriction arithmetic for H^2).
"""

import math
import random
from itertools import product

import pytest

from coclass.groupcoh import (
    _boundary_matrix,
    Cochain,
    CoclassSet,
    FiniteGModule,
    GroupCohError,
    UnsupportedSize,
    coboundary,
    cochain_from_json,
    cochain_to_json,
    cohomology,
    crossed_to_hol,
    cup11,
    h1_via_hol,
    holomorph_homs_over_phi,
    induced_map,
    kernel_basis,
    lattice_basis,
    lemma53_check,
    pushforward,
    res_cor,
    smith_normal_form,
    submodule_over,
)
from coclass.permstruct import FiniteAbelian, Perm, PermGroup


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def c2_trivial():
    C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])
    return FiniteGModule.trivial(C2, FiniteAbelian([2]))


def s3_c3_sign():
    S3 = PermGroup.symmetric(3)
    M3 = FiniteAbelian([3])
    neg = {(0,): (0,), (1,): (2,), (2,): (1,)}
    ident = {m: m for m in M3.elements}
    act = {g: (neg if sum(l - 1 for l in g.cycle_type()) % 2 else ident)
           for g in S3.elements}
    return FiniteGModule(S3, M3, act)


def s3_on_v4():
    """S3 permuting the three nonzero elements of C2 x C2."""
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


# ---------------------------------------------------------------------------
# Smith normal form toolkit
# ---------------------------------------------------------------------------

def test_snf_transforms_consistent():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        S, U, Uinv, V, Vinv = smith_normal_form(M)
        # S = U M V
        UM = [[sum(U[i][t] * M[t][j] for t in range(rows))
               for j in range(cols)] for i in range(rows)]
        UMV = [[sum(UM[i][t] * V[t][j] for t in range(cols))
                for j in range(cols)] for i in range(rows)]
        assert UMV == S
        # diagonal with divisibility
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert S[i][j] == 0
        d = [S[i][i] for i in range(min(rows, cols))]
        for a, b in zip(d, d[1:]):
            if a and b:
                assert b % a == 0
        # Uinv really inverts U
        UU = [[sum(U[i][t] * Uinv[t][j] for t in range(rows))
               for j in range(rows)] for i in range(rows)]
        assert UU == [[1 if i == j else 0 for j in range(rows)]
                      for i in range(rows)]


def test_snf_modulo_n_matches_integer_form():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        N = rng.choice([2, 4, 6, 8, 12, 30])
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        S, U, Uinv, V, _ = smith_normal_form(M, N)
        UMV = [[sum(U[i][s] * M[s][t] * V[t][j] for s in range(rows)
                    for t in range(cols)) % N for j in range(cols)]
               for i in range(rows)]
        assert UMV == S
        assert all(S[i][j] == 0 for i in range(rows) for j in range(cols)
                   if i != j)
        UU = [[sum(U[i][t] * Uinv[t][j] for t in range(rows)) % N
               for j in range(rows)] for i in range(rows)]
        assert UU == [[int(i == j) for j in range(rows)] for i in range(rows)]
        # Z^rows / M (x) Z/N: the Smith form over Z, each entry gcd'd with N
        d = [S[i][i] or N for i in range(min(rows, cols))]
        Z = smith_normal_form(M)[0]
        assert d == [math.gcd(Z[i][i], N) for i in range(min(rows, cols))]


def test_kernel_basis():
    W = [[2, 4]]
    kb = kernel_basis(W)
    assert len(kb) == 1
    x, y = kb[0]
    assert 2 * x + 4 * y == 0 and (x, y) != (0, 0)


def test_lattice_basis_index():
    # lattice generated by (2,0) and (0,3) has index 6 in Z^2
    basis = lattice_basis([[2, 0], [0, 3], [2, 3]])
    det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    assert abs(det) == 6


# ---------------------------------------------------------------------------
# cochains and coboundaries
# ---------------------------------------------------------------------------

def test_coboundary_of_zero():
    gm = c2_trivial()
    for n in (0, 1, 2):
        assert coboundary(Cochain.zero(gm, n)).is_zero()


def test_d0_of_fixed_point_is_zero():
    gm = s3_c3_sign()
    # fixed point is 0 only
    c = Cochain(gm, 0, {(): (0,)})
    assert coboundary(c).is_zero()


def test_dd_zero_randomized():
    rng = random.Random(11)
    for gm in [c2_trivial(), s3_c3_sign(), s3_on_v4()]:
        for _ in range(20):
            u = {(): rng.choice(gm.module.elements)}
            c0 = Cochain(gm, 0, u)
            assert coboundary(coboundary(c0)).is_zero()
            t1 = {(g,): rng.choice(gm.module.elements) for g in gm.elements}
            c1 = Cochain(gm, 1, t1)
            assert coboundary(coboundary(c1)).is_zero()


def test_cochain_json_round_trip():
    gm = s3_c3_sign()
    h1 = cohomology(gm, 1)
    for rep in h1.representatives:
        text = cochain_to_json(rep)
        back = cochain_from_json(gm, text)
        assert back == rep


# ---------------------------------------------------------------------------
# cohomology groups
# ---------------------------------------------------------------------------

def test_h_star_c2_trivial():
    gm = c2_trivial()
    assert cohomology(gm, 0).order == 2
    assert cohomology(gm, 1).order == 2  # Hom(C2, C2)
    assert cohomology(gm, 2).order == 2


def test_h1_s3_c3_sign_order_three():
    gm = s3_c3_sign()
    h1 = cohomology(gm, 1)
    assert h1.order == 3
    # brute-force oracle: all 3^6 maps S3 -> C3 with the crossed-hom law
    from itertools import product as iproduct
    els = gm.elements
    M = gm.module
    crossed = 0
    for combo in iproduct(M.elements, repeat=6):
        t = dict(zip(els, combo))
        if all(t[g * h] == M.add(gm.act(g, t[h]), t[g])
               for g in els for h in els):
            crossed += 1
    # |Z^1| = |H^1| * |B^1|; B^1 = M / M^G = 3
    assert crossed == h1.order * 3


def test_h0_is_fixed_module():
    gm = s3_c3_sign()
    h0 = cohomology(gm, 0)
    assert h0.order == len(gm.fixed_points()) == 1
    gm2 = s3_on_v4()
    assert cohomology(gm2, 0).order == len(gm2.fixed_points()) == 1


def test_h2_s3_c3_sign():
    # 3-part: H^2(C3, C3)^{C2} with both twists acting by -1 (net +1) -> C3;
    # 2-part trivial since |M| = 3
    assert cohomology(s3_c3_sign(), 2).order == 3


def test_reduce_is_projection():
    gm = s3_c3_sign()
    h1 = cohomology(gm, 1)
    for rep in h1.representatives:
        assert h1.reduce(rep) == rep
        # shifting by a coboundary does not change the class
        for u in gm.module.elements:
            c0 = Cochain(gm, 0, {(): u})
            assert h1.reduce(rep + coboundary(c0)) == rep


def test_representatives_pairwise_distinct():
    gm = s3_c3_sign()
    for n in (0, 1):
        h = cohomology(gm, n)
        reps = h.representatives
        assert len(reps) == h.order
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not h.same_class(reps[i], reps[j])


def test_size_cap():
    big = PermGroup.symmetric(5)  # order 120 > 24
    with pytest.raises(UnsupportedSize):
        FiniteGModule.trivial(big, FiniteAbelian([2]))


# ---------------------------------------------------------------------------
# oracle: the dense Smith-form route to H^n
# ---------------------------------------------------------------------------

def _snf_lattice_basis(gens, a):
    """Basis of the lattice the vectors gens span in Z^a, by Smith form."""
    S, _, Uinv, _, _ = smith_normal_form([[g[i] for g in gens]
                                          for i in range(a)])
    return [[Uinv[i][j] * S[j][j] for i in range(a)]
            for j in range(min(a, len(gens))) if S[j][j]]


def _dense_invariants(gm, n):
    """Invariant factors of H^n by dense Smith form over Z alone: Z^n from
    the kernel of [F | diag(m)], then B^n in coordinates of a basis of Z^n."""
    M = gm.module
    k = len(M.cyclic_orders)
    cols = _boundary_matrix(gm, n)
    a = len(cols)
    b = len(gm.elements) ** (n + 1) * k
    W = [[c.get(i, 0) for c in cols]
         + [M.cyclic_orders[i % k] if j == i else 0 for j in range(b)]
         for i in range(b)]
    S, _, _, V, _ = smith_normal_form(W)
    rank = sum(1 for i in range(b) if S[i][i])

    def unit(j):
        return [M.cyclic_orders[j % k] if i == j else 0 for i in range(a)]

    zbasis = _snf_lattice_basis([[V[i][j] for i in range(a)]
                                 for j in range(rank, a + b)]
                                + [unit(j) for j in range(a)], a)
    bgens = [unit(j) for j in range(a)]
    if n:
        bgens += [[c.get(i, 0) for i in range(a)]
                  for c in _boundary_matrix(gm, n - 1)]
    # B^n in Z^n coordinates, solved through the Smith form of the Z basis
    S, U, _, V, _ = smith_normal_form([[z[i] for z in zbasis]
                                       for i in range(a)])
    coords = []
    for col in _snf_lattice_basis(bgens, a):
        w = [sum(u * x for u, x in zip(U[i], col)) for i in range(a)]
        assert all(w[i] % S[i][i] == 0 for i in range(a))
        y = [w[i] // S[i][i] for i in range(a)]
        coords.append([sum(v * x for v, x in zip(V[i], y)) for i in range(a)])
    S = smith_normal_form([[c[i] for c in coords] for i in range(a)])[0]
    return [S[i][i] for i in range(a)]


_GROUPS = {
    "C1": (1, []), "C2": (2, ["(0 1)"]),
    "C3": (3, ["(0 1 2)"]), "C4": (4, ["(0 1 2 3)"]),
    "V4": (4, ["(0 1)(2 3)", "(0 2)(1 3)"]), "C5": (5, ["(0 1 2 3 4)"]),
    "S3": (3, ["(0 1 2)", "(0 1)"]), "C6": (6, ["(0 1 2 3 4 5)"]),
    "D4": (4, ["(0 1 2 3)", "(0 2)"]), "A4": (4, ["(0 1 2)", "(0 1)(2 3)"]),
    "S4": (4, ["(0 1 2 3)", "(0 1)"]),
}


def _trivial(name, orders):
    n, gens = _GROUPS[name]
    return FiniteGModule.trivial(PermGroup.from_cycle_strings(n, gens),
                                 FiniteAbelian(orders))


def _cyclic_by_multiplier(n, m, u):
    """C_n, generated by an n-cycle, acting on Z/m through x -> u*x."""
    cycle = "(%s)" % " ".join(map(str, range(n)))
    G = PermGroup.from_cycle_strings(n, [cycle])
    M = FiniteAbelian([m])
    phi = {x: ((u * x[0]) % m,) for x in M.elements}
    return FiniteGModule.from_generator_action(G, M, {G.generators[0]: phi})


_ORACLE_MODULES = (
    [(f"{g} trivial on {M}", lambda g=g, M=M: _trivial(g, M))
     for g in ("C3", "C4", "V4", "C5", "S3", "C6")
     for M in ([2], [3], [4], [2, 2])]
    + [("S3 on Z/3 by sign", s3_c3_sign), ("S3 permuting V4", s3_on_v4),
       ("C4 on Z/5 by 2x", lambda: _cyclic_by_multiplier(4, 5, 2)),
       # composite moduli, where a gcd cofactor need not be a unit
       ("C3 on Z/14 by 11x", lambda: _cyclic_by_multiplier(3, 14, 11)),
       ("C4 on Z/10 by 3x", lambda: _cyclic_by_multiplier(4, 10, 3))]
    + [(f"C2 by inversion on Z/{m}",
        lambda m=m: _cyclic_by_multiplier(2, m, -1)) for m in range(2, 17)])


@pytest.mark.parametrize("name,maker", _ORACLE_MODULES,
                         ids=[name for name, _ in _ORACLE_MODULES])
def test_invariants_match_dense_smith_route(name, maker):
    gm = maker()
    for n in (0, 1, 2):
        assert cohomology(gm, n).invariants == _dense_invariants(gm, n), n


@pytest.mark.parametrize("group", ["C3", "C4", "V4", "S3"])
def test_coprime_cyclic_factors_match_the_cyclic_module(group):
    # Z/2 x Z/3 = Z/6.  The dense route does not finish on the split form,
    # whose mixed moduli make its entries grow without bound.
    for n in (0, 1, 2):
        split = cohomology(_trivial(group, [2, 3]), n).invariants
        cyclic = _dense_invariants(_trivial(group, [6]), n)
        assert [s for s in split if s > 1] == [s for s in cyclic if s > 1]


@pytest.mark.parametrize("group,orders,order,invariants", [
    ("D4", [2, 2], 64, [2] * 6),   # H^2(D4, Z/2) = (Z/2)^3
    ("A4", [2], 2, [2]),           # Schur multiplier Z/2, A4^ab = Z/3
    ("S4", [2, 2], 16, [2] * 4),   # H^2(S4, Z/2) = (Z/2)^2
])
def test_h2_closed_forms_beyond_order_six(group, orders, order, invariants):
    h2 = cohomology(_trivial(group, orders), 2)
    assert h2.order == order
    assert [s for s in h2.invariants if s > 1] == invariants


# ---------------------------------------------------------------------------
# crossed homs and the holomorph dictionary
# ---------------------------------------------------------------------------

def test_crossed_to_hol_zero_is_phi():
    gm = s3_c3_sign()
    hol, psi = crossed_to_hol(gm, Cochain.zero(gm, 1))
    # every psi(g) fixes the zero element of M
    zero_idx = hol.point_index[gm.module.zero()]
    assert all(p(zero_idx) == zero_idx for p in psi.values())


def test_crossed_to_hol_coboundary_is_translation_conjugate():
    gm = s3_c3_sign()
    hol, psi0 = crossed_to_hol(gm, Cochain.zero(gm, 1))
    x = (1,)
    z = coboundary(Cochain(gm, 0, {(): x}))
    _, psi = crossed_to_hol(gm, z)
    # conjugation by translation-by-u realizes the cocycle u - g.u, so the
    # conjugator matching d0(x) = g.x - x is translation by -x
    tau = hol.translation(gm.module.neg(x))
    taui = tau.inverse()
    assert all(psi[g] == tau * psi0[g] * taui for g in gm.elements)


def test_crossed_to_hol_nonzero_is_iso():
    gm = s3_c3_sign()
    h1 = cohomology(gm, 1)
    for rep in h1.representatives:
        if rep.is_zero():
            continue
        hol, psi = crossed_to_hol(gm, rep)
        assert len(set(psi.values())) == 6 == hol.order


def test_crossed_to_hol_rejects_non_cocycle():
    gm = s3_c3_sign()
    els = gm.elements
    t = {(g,): ((1,) if g != Perm.identity(3) else (0,)) for g in els}
    c = Cochain(gm, 1, t)
    if not coboundary(c).is_zero():
        with pytest.raises(GroupCohError):
            crossed_to_hol(gm, c)


@pytest.mark.parametrize("maker,expected", [
    (c2_trivial, 2), (s3_c3_sign, 3),
])
def test_h1_via_hol_matches(maker, expected):
    gm = maker()
    classes, bij = h1_via_hol(gm)
    assert len(classes) == expected
    assert len(set(tuple(sorted(r.table.items())) for r in bij.values())) == expected


def test_h1_via_hol_trivial_group():
    G1 = PermGroup(1, [])
    gm = FiniteGModule.trivial(G1, FiniteAbelian([4]))
    classes, _ = h1_via_hol(gm)
    assert len(classes) == 1


def _crossed_homs_by_scan(gm):
    """Every map t: G -> M with t(gh) = g.t(h) + t(g), found by trying all
    |M|^|G| maps."""
    M, els = gm.module, gm.elements
    return [combo for combo in product(M.elements, repeat=len(els))
            if all(combo[els.index(g * h)] == M.add(gm.act(g, combo[j]),
                                                    combo[i])
                   for i, g in enumerate(els) for j, h in enumerate(els))]


# every module with |M|^|G| <= 4096
_HOL_CASES = [(g, M) for g in ("C1", "C2", "C3", "C4", "C5", "C6", "V4", "S3")
              for M in ([2], [3], [4], [2, 2], [6], [2, 3])
              if math.prod(M) ** PermGroup.from_cycle_strings(
                  *_GROUPS[g]).order <= 4096]


@pytest.mark.parametrize("group,orders", _HOL_CASES,
                         ids=[f"{g}-{M}" for g, M in _HOL_CASES])
def test_hol_lifts_match_scan_of_all_maps(group, orders):
    n, gens = _GROUPS[group]
    G = PermGroup.from_cycle_strings(n, gens)
    M = FiniteAbelian(orders)
    auts = M.automorphisms()
    rng = random.Random(f"{group} {orders}")
    modules = [FiniteGModule.trivial(G, M)]
    for _ in range(6):  # random generator actions, kept when consistent
        try:
            modules.append(FiniteGModule.from_generator_action(
                G, M, {g: rng.choice(auts) for g in G.generators}))
        except GroupCohError:
            pass
    for gm in modules:
        found = [tuple(t[g] for g in gm.elements)
                 for t in holomorph_homs_over_phi(gm)]
        assert len(set(found)) == len(found)
        assert set(found) == set(_crossed_homs_by_scan(gm))


def test_h1_matrix_hol_agreement():
    """|H^1| from linear algebra equals the Hol-class count on a matrix of
    modules (Thm H^1 at finite level)."""
    mats = [c2_trivial(), s3_c3_sign(), s3_on_v4()]
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    M4 = FiniteAbelian([4])
    inv = {(0,): (0,), (1,): (3,), (2,): (2,), (3,): (1,)}
    gen = C4.generators[0]
    mats.append(FiniteGModule.from_generator_action(C4, M4, {gen: inv}))
    for gm in mats:
        classes, _ = h1_via_hol(gm)
        assert len(classes) == cohomology(gm, 1).order


def test_inverse_coclass_pairing_sign_modules():
    # for M = C3 with even-order G acting through sign: z and -z give
    # Hol-conjugate homomorphisms
    gm = s3_c3_sign()
    h1 = cohomology(gm, 1)
    hol = None
    for rep in h1.representatives:
        if rep.is_zero():
            continue
        hol, psi = crossed_to_hol(gm, rep)
        _, psim = crossed_to_hol(gm, -rep)
        conjugate = False
        for c in hol.elements:
            ci = c.inverse()
            if all(psim[g] == c * psi[g] * ci for g in gm.elements):
                conjugate = True
                break
        assert conjugate
    assert hol is not None


# ---------------------------------------------------------------------------
# res / cor
# ---------------------------------------------------------------------------

def test_res_of_zero():
    gm = s3_c3_sign()
    H = PermGroup.from_cycle_strings(3, ["(0 1 2)"])
    assert res_cor(gm, H, Cochain.zero(gm, 1), "res").is_zero()


def test_cor_res_is_index_times_identity_degree1():
    gm = s3_c3_sign()
    H = PermGroup.from_cycle_strings(3, ["(0 1 2)"])
    h1 = cohomology(gm, 1)
    for rep in h1.representatives:
        cor = res_cor(gm, H, res_cor(gm, H, rep, "res"), "cor")
        assert h1.same_class(cor, rep.smul(2))
        assert h1.same_class(cor, -rep)  # 2 = -1 mod 3


def test_cor_res_degree0():
    gm = c2_trivial()
    triv = PermGroup(2, [])
    h0 = cohomology(gm, 0)
    for rep in h0.representatives:
        cor = res_cor(gm, triv, res_cor(gm, triv, rep, "res"), "cor")
        assert cor == rep.smul(2)


def test_cor_res_matrix():
    pairs = [
        (s3_c3_sign(), PermGroup.from_cycle_strings(3, ["(0 1)"])),
        (s3_on_v4(), PermGroup.from_cycle_strings(3, ["(1 2)"])),
        (c2_trivial(), PermGroup(2, [])),
    ]
    for gm, H in pairs:
        index = gm.group.order // H.order
        h1 = cohomology(gm, 1)
        for rep in h1.representatives:
            cor = res_cor(gm, H, res_cor(gm, H, rep, "res"), "cor")
            assert h1.same_class(cor, rep.smul(index))


def test_res_cor_rejects_non_subgroup():
    gm = s3_c3_sign()
    bad = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    with pytest.raises(GroupCohError):
        res_cor(gm, bad, Cochain.zero(gm, 1), "res")


# ---------------------------------------------------------------------------
# Lemma 5.3
# ---------------------------------------------------------------------------

def test_lemma53_h_equals_g():
    gm = s3_c3_sign()
    f = {m: m for m in gm.module.elements}
    ok, bad = lemma53_check(gm, gm, gm.group, f, 1)
    assert ok and bad is None


def test_lemma53_c2_norm_map():
    gm = c2_trivial()
    triv = PermGroup(2, [])
    f = {m: m for m in gm.module.elements}
    ok, _ = lemma53_check(gm, gm, triv, f, 0)
    assert ok


def test_lemma53_s3_coordinate_character():
    X = s3_on_v4()
    Y = FiniteGModule.trivial(PermGroup.symmetric(3), FiniteAbelian([2]))
    H = PermGroup.from_cycle_strings(3, ["(1 2)"])
    # H fixes (1,0) and swaps (0,1) <-> (1,1): the character with kernel
    # {0, (1,0)} is H-linear
    f = {(0, 0): (0,), (1, 0): (0,), (0, 1): (1,), (1, 1): (1,)}
    ok, _ = lemma53_check(X, Y, H, f, 1)
    assert ok


def test_lemma53_randomized_matrix():
    rng = random.Random(23)
    X = s3_on_v4()
    Y2 = FiniteGModule.trivial(PermGroup.symmetric(3), FiniteAbelian([2]))
    cases = []
    for Htexts in [["(1 2)"], ["(0 1 2)"], []]:
        H = PermGroup.from_cycle_strings(3, Htexts) if Htexts else PermGroup(3, [])
        # collect all H-linear maps X -> Y2 and test a sample
        from itertools import product as iproduct
        nz = [(1, 0), (0, 1), (1, 1)]
        for vals in iproduct([(0,), (1,)], repeat=3):
            f = {(0, 0): (0,)}
            for m, v in zip(nz, vals):
                f[m] = v
            try:
                ok, _ = lemma53_check(X, Y2, H, f, 1)
            except GroupCohError:
                continue  # not additive/H-linear: skipped
            cases.append(ok)
    assert cases and all(cases)


def test_lemma53_rejects_non_linear():
    X = s3_on_v4()
    Y = FiniteGModule.trivial(PermGroup.symmetric(3), FiniteAbelian([2]))
    H = PermGroup.from_cycle_strings(3, ["(1 2)"])
    f = {(0, 0): (1,), (1, 0): (0,), (0, 1): (0,), (1, 1): (0,)}
    with pytest.raises(GroupCohError):
        lemma53_check(X, Y, H, f, 1)


def test_induced_map_is_g_linear():
    X = s3_on_v4()
    Y = FiniteGModule.trivial(PermGroup.symmetric(3), FiniteAbelian([2]))
    H = PermGroup.from_cycle_strings(3, ["(1 2)"])
    f = {(0, 0): (0,), (1, 0): (0,), (0, 1): (1,), (1, 1): (1,)}
    ft = induced_map(X, Y, H, f)
    for g in X.group.elements:
        for m in X.module.elements:
            assert ft[X.act(g, m)] == Y.act(g, ft[m])


# ---------------------------------------------------------------------------
# cup products
# ---------------------------------------------------------------------------

def _mult_pairing(x, y):
    return ((x[0] * y[0]) % 2,)


def test_cup_with_zero():
    gm = c2_trivial()
    z = cohomology(gm, 1).representatives[-1]
    out = cup11(gm, gm, gm, Cochain.zero(gm, 1), z, _mult_pairing)
    assert out.is_zero()


def test_cup_self_nontrivial():
    gm = c2_trivial()
    h1 = cohomology(gm, 1)
    h2 = cohomology(gm, 2)
    z = next(r for r in h1.representatives if not r.is_zero())
    c = cup11(gm, gm, gm, z, z, _mult_pairing)
    assert not h2.reduce(c).is_zero()
    assert h2.order == 2


def test_cup_symmetrized_killed_by_two():
    gm = c2_trivial()
    h2 = cohomology(gm, 2)
    h1 = cohomology(gm, 1)
    for z1 in h1.representatives:
        for z2 in h1.representatives:
            c = cup11(gm, gm, gm, z1, z2, _mult_pairing) + \
                cup11(gm, gm, gm, z2, z1, _mult_pairing)
            assert h2.reduce(c.smul(2)).is_zero()


def test_cup_rejects_non_equivariant():
    gm = s3_c3_sign()
    bad = lambda x, y: ((x[0] + y[0]) % 3,)  # not bilinear

    with pytest.raises(GroupCohError):
        cup11(gm, gm, gm, Cochain.zero(gm, 1), Cochain.zero(gm, 1), bad)
