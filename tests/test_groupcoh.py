"""Tests for coclass.groupcoh.

Expected cohomology orders were derived independently (hand enumeration of
Hom(C2,C2); brute-force scan of all 3^6 maps with the crossed-hom law for
(S3, C3-sign); restriction-corestriction arithmetic for H^2).
"""

import math
import random
import time
import tracemalloc
from itertools import product

import pytest

from coclass import groupcoh
from coclass.groupcoh import (
    _boundary_matrix,
    Cochain,
    CoclassSet,
    FiniteGModule,
    GroupCohError,
    SylowCoclassSet,
    UnsupportedSize,
    coboundary,
    cohomology,
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
from helpers import (
    automorphisms_by_product,
    boundary_matrix_by_products,
    coboundary_by_table,
    cochain_from_json,
    cochain_to_json,
    crossed_to_hol,
    fixed_points,
    holomorph_group,
    normalized_part,
)


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


def s4_on_v4():
    """S4 acting on its normal subgroup V4 = C2 x C2 by conjugation, the
    nonzero elements (1, 0), (0, 1), (1, 1) standing for (0 1)(2 3),
    (0 2)(1 3), (0 3)(1 2)."""
    S4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)", "(0 1)"])
    V = [Perm.from_cycles(c, 4) for c in ("(0 1)(2 3)", "(0 2)(1 3)",
                                           "(0 3)(1 2)")]
    nz = [(1, 0), (0, 1), (1, 1)]
    act = {g: {(0, 0): (0, 0), **{m: nz[V.index(v.conjugate(g))]
                                  for m, v in zip(nz, V)}}
           for g in S4.generators}
    return FiniteGModule.from_generator_action(S4, FiniteAbelian([2, 2]), act)


# ---------------------------------------------------------------------------
# Smith normal form toolkit
# ---------------------------------------------------------------------------

def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _smith_over_z(M):
    """Return (S, U, Uinv, V, Vinv) with S = U*M*V diagonal, s_i | s_{i+1},
    U, V unimodular, by elimination over Z: the dense oracle's Smith form.
    Its entries can grow without bound, which is why the library works
    modulo N instead."""
    S = [row[:] for row in M]
    rows = len(S)
    cols = len(S[0]) if rows else 0
    U, Uinv = _identity(rows), _identity(rows)
    V, Vinv = _identity(cols), _identity(cols)

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_add(i, j, c):  # row_i += c * row_j
        Si, Sj = S[i], S[j]
        for t in range(cols):
            Si[t] += c * Sj[t]
        Ui, Uj = U[i], U[j]
        for t in range(rows):
            Ui[t] += c * Uj[t]
        for r in Uinv:
            r[j] -= c * r[i]

    def col_add(i, j, c):  # col_i += c * col_j
        for r in S:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]
        Vi, Vj = Vinv[i], Vinv[j]
        for t in range(cols):
            Vj[t] -= c * Vi[t]

    def row_neg(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    t = 0
    while t < rows and t < cols:
        # find a pivot
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = S[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            row_swap(t, i0)
        if j0 != t:
            col_swap(t, j0)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    row_add(i, t, -q)
                    if S[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    col_add(j, t, -q)
                    if S[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        if S[t][t] < 0:
            row_neg(t)
        t += 1
    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(min(rows, cols) - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if a and b % a != 0:
                col_add(i, i + 1, 1)
                # re-clear the 2x2 block
                while S[i + 1][i]:
                    q = S[i + 1][i] // S[i][i]
                    row_add(i + 1, i, -q)
                    if S[i + 1][i]:
                        row_swap(i, i + 1)
                while S[i][i + 1]:
                    q = S[i][i + 1] // S[i][i]
                    col_add(i + 1, i, -q)
                    if S[i][i + 1]:
                        col_swap(i, i + 1)
                if S[i][i] < 0:
                    row_neg(i)
                if S[i + 1][i + 1] < 0:
                    row_neg(i + 1)
                changed = True
    return S, U, Uinv, V, Vinv


def test_snf_transforms_consistent():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        S, U, Uinv, V, Vinv = _smith_over_z(M)
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
    # Z^rows / M (x) Z/N: the Smith form over Z, each entry gcd'd with N,
    # a row beyond the last column counting as 0
    rng = random.Random(11)
    cases = [([[] for _ in range(rows)], N) for rows, N in ((1, 6), (3, 8))]
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        N = rng.choice([2, 4, 6, 8, 9, 12, 16, 27, 30])
        cases.append(([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)], N))
    assert any(len(M) > len(M[0]) > 0 for M, _ in cases)
    for M, N in cases:
        Z = _smith_over_z(M)[0]
        cols = len(M[0])
        z = [Z[i][i] if i < cols else 0 for i in range(len(M))]
        assert smith_normal_form(M, N) == sorted(math.gcd(x, N) for x in z), \
            (M, N)
    assert smith_normal_form([[] for _ in range(4)], 9) == [9] * 4
    assert smith_normal_form([], 5) == []


def test_kernel_basis():
    # x in Z/4 x Z/2 with W x = 0 modulo row moduli 2, 4 and 8: the kernel
    # vectors with 4 e_0 and 2 e_1 span exactly the brute-force solutions
    rng = random.Random(5)
    col_mods, row_mods = [4, 2], [2, 4, 8]
    for _ in range(30):
        # entry (r, j) a multiple of row_mods[r] / gcd(row_mods[r], col_mods[j])
        W = [{r: w for r, m in enumerate(row_mods)
              if (w := rng.randrange(m) * m // math.gcd(m, n) % m)}
             for n in col_mods]
        solutions = {x for x in product(range(4), range(2))
                     if all(sum(W[j].get(r, 0) * x[j] for j in range(2)) % m == 0
                            for r, m in enumerate(row_mods))}
        kb = kernel_basis(W, row_mods, col_mods)
        assert all(v and set(v) <= {0, 1} for v in kb)
        span = {(0, 0)}
        for v in kb:
            step = (v.get(0, 0), v.get(1, 0))
            while True:
                more = {((x + step[0]) % 4, (y + step[1]) % 2) for x, y in span}
                if more <= span:
                    break
                span |= more
        assert span == solutions, W


def test_kernel_basis_is_a_howell_basis():
    # the basis leads at distinct coordinates, in descending order, and
    # every brute-force kernel vector reduces to zero by division down it
    rng = random.Random(24)
    checked = 0
    for _ in range(200):
        col_mods = [rng.choice([2, 3, 4, 6, 8, 9, 12])
                    for _ in range(rng.randint(1, 4))]
        row_mods = [rng.choice([2, 4, 6, 8, 12, 16])
                    for _ in range(rng.randint(1, 4))]
        W = [{r: w for r, m in enumerate(row_mods) if rng.random() < 0.6
              and (w := rng.randrange(m) * m // math.gcd(m, n) % m)}
             for n in col_mods]

        def image(x):
            return [sum(col.get(r, 0) * c for col, c in zip(W, x)) % m
                    for r, m in enumerate(row_mods)]

        kb = kernel_basis(W, row_mods, col_mods)
        leads = [max(h) for h in kb]
        assert leads == sorted(set(leads), reverse=True), W
        assert not any(any(image([h.get(j, 0) for j in range(len(col_mods))]))
                       for h in kb), W
        for x in product(*map(range, col_mods)):
            if any(image(x)):
                continue
            v = list(x)
            for r, h in zip(leads, kb):
                q, rem = divmod(v[r], h[r])
                assert rem == 0, (W, x)
                for j, y in h.items():
                    v[j] = (v[j] - q * y) % col_mods[j]
            assert not any(v), (W, x)
            checked += 1
    assert checked > 10000


def test_one_echelon_per_kernel_and_lattice_basis(monkeypatch):
    # building H^n eliminates once in kernel_basis and once in each
    # lattice_basis that has generators (inside smith_normal_form or not),
    # and runs no echelon pass of its own
    calls = {"echelon": 0, "bases": 0}

    def spy(name, key, counts=lambda *args: True):
        fn = getattr(groupcoh, name)

        def wrapper(*args):
            calls[key] += counts(*args)
            return fn(*args)
        monkeypatch.setattr(groupcoh, name, wrapper)

    spy("_echelon", "echelon")
    spy("kernel_basis", "bases")
    spy("lattice_basis", "bases", lambda gens, _: bool(gens))
    for gm in (c2_trivial(), s3_c3_sign(), s3_on_v4()):
        for n in (0, 1, 2):
            cohomology(gm, n)
    assert calls["bases"] > 0
    assert calls["echelon"] == calls["bases"]


def test_lattice_basis_index():
    # (2,0), (0,3), (2,3) and 12 Z^2 span 2Z x 3Z, of index 6 in Z^2;
    # (4,0) and 6 Z^2 span 2Z x 6Z, of index 12
    for gens, modulus, index in (([[2, 0], [0, 3], [2, 3]], 12, 6),
                                 ([[4, 0]], 6, 12)):
        basis = lattice_basis(gens, modulus)
        assert len(basis) == 2
        assert all(0 <= x <= modulus for col in basis for x in col)
        det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
        assert abs(det) == index


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


def c4_inversion():
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    M4 = FiniteAbelian([4])
    inv = {(0,): (0,), (1,): (3,), (2,): (2,), (3,): (1,)}
    return FiniteGModule.from_generator_action(C4, M4, {C4.generators[0]: inv})


def _random_cochain(gm, arity, rng):
    """A seeded full cochain of the given arity."""
    return Cochain(gm, arity, {key: rng.choice(gm.module.elements)
                               for key in product(gm.elements, repeat=arity)})


def _nonzero_at_one(gm, arity, rng):
    """A seeded full cochain whose value at (1, ..., 1) is not 0."""
    M = gm.module
    table = {key: rng.choice(M.elements)
             for key in product(gm.elements, repeat=arity)}
    table[(gm.elements[0],) * arity] = rng.choice(M.elements[1:])
    return Cochain(gm, arity, table)


@pytest.mark.parametrize("maker", [c2_trivial, s3_c3_sign, s3_on_v4,
                                   c4_inversion, s4_on_v4])
def test_coboundary_matches_table_formula(maker):
    # coboundary is d of the full bar complex: the cochains here are not
    # normalized, and d d = 0 holds for them
    gm = maker()
    rng = random.Random(maker.__name__)
    for arity in (0, 1, 2):
        for _ in range(3):
            c = _nonzero_at_one(gm, arity, rng)
            dc = coboundary(c)
            assert dc == coboundary_by_table(c)
            if arity < 2:
                assert coboundary(dc).is_zero()


def test_cochain_reads_its_table():
    gm = s3_on_v4()
    rng = random.Random(5)
    table = {key: rng.choice(gm.module.elements)
             for key in product(gm.elements, repeat=2)}
    c = Cochain(gm, 2, table)
    assert all(c(*key) == v for key, v in table.items())
    with pytest.raises(GroupCohError, match="takes 2 arguments"):
        c(gm.elements[0])
    assert c.vector == tuple(x for key in product(gm.elements, repeat=2)
                             for x in table[key])
    with pytest.raises(GroupCohError, match="missing"):
        Cochain(gm, 1, {(gm.elements[0],): (0, 0)})


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
    assert h0.order == len(fixed_points(gm)) == 1
    gm2 = s3_on_v4()
    assert cohomology(gm2, 0).order == len(fixed_points(gm2)) == 1


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


@pytest.mark.parametrize("degree", [1, 2])
def test_reduce_rejects_non_cocycle(degree):
    # 1 at (e, ..., e) and 0 elsewhere: d1 gives 1 at (e, e), d2 gives 1 at
    # (s, e, e)
    gm = c2_trivial()
    e = Perm.identity(2)
    c = Cochain(gm, degree, {k: (int(k == (e,) * degree),)
                             for k in product(gm.elements, repeat=degree)})
    assert not coboundary(c).is_zero()
    with pytest.raises(GroupCohError, match="not a cocycle"):
        cohomology(gm, degree).reduce(c)


@pytest.mark.parametrize("degree", [1, 2])
def test_sylow_reduce_rejects_non_cocycle_with_cocycle_restriction(degree):
    # 1 at ((0 1), ..., (0 1)) and 0 elsewhere: d is not 0 on S3, but the
    # restriction to the Sylow 3-subgroup, the only one that counts for
    # Z/3, is 0
    gm = s3_c3_sign()
    s = Perm.from_cycles("(0 1)", 3)
    c = Cochain(gm, degree, {k: (int(k == (s,) * degree),)
                             for k in product(gm.elements, repeat=degree)})
    h = cohomology(gm, degree)
    assert isinstance(h, SylowCoclassSet)
    assert not coboundary(c).is_zero()
    assert res_cor(gm, gm._sylow[3].group, c, "res").is_zero()
    with pytest.raises(GroupCohError, match="not a cocycle"):
        h.reduce(c)


@pytest.mark.parametrize("maker", [c2_trivial, s3_c3_sign, s3_on_v4,
                                   c4_inversion, s4_on_v4])
def test_cocycle_test_on_generators_matches_the_full_coboundary(maker):
    # groupcoh._is_cocycle reads d(c) only where the last argument is a
    # generator; a cocycle changed at one tuple must still fail it
    gm = maker()
    rng = random.Random(maker.__name__)
    for n in (0, 1, 2):
        for rep in cohomology(gm, n).representatives[:3]:
            c = rep + coboundary(_random_cochain(gm, n - 1, rng)) if n \
                else rep
            assert groupcoh._is_cocycle(c)
            for _ in range(4):
                i = rng.randrange(len(c.vector))
                v = list(c.vector)
                v[i] += 1
                bent = Cochain.from_vector(gm, n, v)
                assert groupcoh._is_cocycle(bent) == \
                    coboundary(bent).is_zero()


@pytest.mark.parametrize("maker", [s3_c3_sign, lambda: _trivial("S3", [2])],
                         ids=["S3 on Z/3 by sign", "S3 trivial on Z/2"])
def test_cocycle_test_on_every_1_cochain_of_s3(maker):
    # all |M|^6 maps S3 -> M: one generator alone would let through maps
    # that are crossed homomorphisms only along it
    gm = maker()
    found = 0
    for values in product(gm.module.elements, repeat=len(gm.elements)):
        c = Cochain(gm, 1, {(g,): x for g, x in zip(gm.elements, values)})
        full = coboundary(c).is_zero()
        assert groupcoh._is_cocycle(c) == full
        found += full
    assert found == cohomology(gm, 1).order * len(
        {coboundary(Cochain(gm, 0, {(): m})) for m in gm.module.elements})


def _random_cocycle(h, rng):
    """A seeded cocycle of h's degree: a random combination of the
    representatives plus a random coboundary."""
    gm, n = h.gm, h.degree
    c = Cochain.zero(gm, n)
    for rep in h.representatives:
        c = c + rep.smul(rng.randrange(gm.module.exponent))
    if n:
        c = c + coboundary(Cochain(gm, n - 1, {
            key: rng.choice(gm.module.elements)
            for key in product(gm.elements, repeat=n - 1)}))
    return c


def c4_on_z2_z8():
    """C4 acting on Z/2 x Z/8 through (x, y) -> (x + y, 4x + 3y)."""
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    M = FiniteAbelian([2, 8])
    phi = {(x, y): ((x + y) % 2, (4 * x + 3 * y) % 8) for x, y in M.elements}
    return FiniteGModule.from_generator_action(C4, M, {C4.generators[0]: phi})


@pytest.mark.parametrize("name,maker", [
    ("S3 on Z/3 by sign", s3_c3_sign), ("C4 on Z/4 by inversion", c4_inversion),
    ("S4 on V4 by conjugation", s4_on_v4),
    ("C2 by inversion on Z/16", lambda: _cyclic_by_multiplier(2, 16, -1)),
    ("C2 trivial on Z/2 x Z/8", lambda: _trivial("C2", [2, 8])),
    ("C4 on Z/2 x Z/8", c4_on_z2_z8)])
def test_reduce_respects_the_group_law(name, maker):
    # reduce is a homomorphism onto a transversal, the representatives; in
    # degrees 1 and 2 every module here has classes other than 0
    rng = random.Random(name)
    gm = maker()
    for n in (1, 2):
        h = cohomology(gm, n)
        reps = set(h.representatives)
        for _ in range(12):
            a, b = _random_cocycle(h, rng), _random_cocycle(h, rng)
            assert h.reduce(a + b) == h.reduce(h.reduce(a) + h.reduce(b))
            assert h.reduce(a) in reps


_UNNORMALIZED_MODULES = [
    ("C2 trivial on Z/2", c2_trivial), ("S3 on Z/3 by sign", s3_c3_sign),
    ("C4 on Z/4 by inversion", c4_inversion), ("S3 permuting V4", s3_on_v4),
    ("C2 trivial on Z/2 x Z/8", lambda: _trivial("C2", [2, 8])),
    ("C4 on Z/2 x Z/8", c4_on_z2_z8)]


@pytest.mark.parametrize("name,maker", _UNNORMALIZED_MODULES,
                         ids=[name for name, _ in _UNNORMALIZED_MODULES])
def test_reduce_takes_cocycles_that_are_not_normalized(name, maker):
    # H^n is computed on normalized cochains, but reduce and same_class take
    # any full cocycle: rep + d(b) with b(1) != 0 is rep's class, and is
    # not 0 at (1, 1)
    rng = random.Random(name)
    gm = maker()
    one = gm.elements[0]
    zero = gm.module.zero()
    h2 = cohomology(gm, 2)
    for rep in rng.sample(h2.representatives, min(6, h2.order)):
        assert rep(one, one) == zero
        for _ in range(3):
            c = rep + coboundary(_nonzero_at_one(gm, 1, rng))
            assert c(one, one) != zero
            assert h2.reduce(c) == rep
            assert h2.same_class(c, rep)


@pytest.mark.parametrize("name,maker", _UNNORMALIZED_MODULES,
                         ids=[name for name, _ in _UNNORMALIZED_MODULES])
def test_reduce_rejects_cochains_nonzero_at_one(name, maker):
    rng = random.Random(name)
    gm = maker()
    one = gm.elements[0]
    # a 1-cocycle vanishes at 1, since d1(s)(1, 1) = s(1)
    h1 = cohomology(gm, 1)
    for rep in h1.representatives[:4]:
        c = rep + Cochain(gm, 1, {
            (g,): rng.choice(gm.module.elements[1:]) if g == one
            else gm.module.zero() for g in gm.elements})
        assert not coboundary(c).is_zero()
        with pytest.raises(GroupCohError, match="not a cocycle"):
            h1.reduce(c)
        with pytest.raises(GroupCohError, match="not a cocycle"):
            h1.same_class(c, rep)
    # a 2-cochain living only on the tuples that hold 1
    h2 = cohomology(gm, 2)
    rejected = 0
    for _ in range(8):
        c = Cochain(gm, 2, {
            key: rng.choice(gm.module.elements) if one in key
            else gm.module.zero()
            for key in product(gm.elements, repeat=2)})
        if not coboundary(c).is_zero():
            rejected += 1
            with pytest.raises(GroupCohError, match="not a cocycle"):
                h2.reduce(c)
    assert rejected


def test_large_h2_without_listing_its_classes():
    # dim H^2((Z/2)^4, F_2) = 4 + 6, so H^2 with (Z/2)^2 coefficients has
    # order 2^20; its 2^20 representatives are never built
    G = PermGroup.from_cycle_strings(8, ["(0 1)", "(2 3)", "(4 5)", "(6 7)"])
    start = time.perf_counter()
    h2 = cohomology(FiniteGModule.trivial(G, FiniteAbelian([2, 2])), 2)
    assert h2.order == 2 ** 20
    assert [s for s in h2.invariants if s > 1] == [2] * 20
    assert time.perf_counter() - start < 5


_CAP_CORNERS = [
    # H^2(S4, Z/2) = (Z/2)^2, so (Z/2)^4 gives (Z/2)^8
    ("S4 trivial on (Z/2)^4", lambda: _trivial("S4", [2, 2, 2, 2]), [2] * 8),
    ("C24 trivial on (Z/2)^4", lambda: _trivial("C24", [2, 2, 2, 2]),
     [2] * 4),
    ("S4 on V4 by conjugation", s4_on_v4, [2])]


@pytest.mark.parametrize("name,maker,invariants", _CAP_CORNERS,
                         ids=[name for name, *_ in _CAP_CORNERS])
def test_h2_at_the_caps_never_eliminates_on_g(name, maker, invariants,
                                              monkeypatch):
    # |G| = 24 with a Sylow 2-subgroup of order 8: every matrix handed to
    # kernel_basis is at most the size of d^2 on that subgroup, (8 - 1)^3 k
    # rows, so a fallback to the bar complex of G (23^3 k rows) fails
    rows = []
    real = groupcoh.kernel_basis

    def spy(W, row_mods, col_mods):
        rows.append(len(row_mods))
        return real(W, row_mods, col_mods)
    monkeypatch.setattr(groupcoh, "kernel_basis", spy)
    start = time.perf_counter()
    gm = maker()
    h2 = cohomology(gm, 2)
    assert time.perf_counter() - start < 0.5
    assert [s for s in h2.invariants if s > 1] == invariants
    assert h2.order == math.prod(invariants)
    assert rows and max(rows) <= 7 ** 3 * len(gm.module.cyclic_orders)


def test_size_cap():
    big = PermGroup.symmetric(5)  # order 120 > 24
    with pytest.raises(UnsupportedSize):
        FiniteGModule.trivial(big, FiniteAbelian([2]))


def test_action_given_outside_g_is_named():
    # (0 1) is not in C3 = <(0 1 2)>: extending over the span of the keys,
    # S3, and keeping the part on C3 would drop the (0 1) chunk unseen
    C3 = PermGroup.from_cycle_strings(3, ["(0 1 2)"])
    M = FiniteAbelian([3])
    rot, swap = (Perm.from_cycles(c, 3) for c in ("(0 1 2)", "(0 1)"))
    neg = {x: ((-x[0]) % 3,) for x in M.elements}
    for action in ({rot: {x: x for x in M.elements}, swap: neg},
                   {swap: neg}):
        with pytest.raises(GroupCohError, match=r"^action given for "
                           r"\(0 1\), which is not in G$"):
            FiniteGModule.from_generator_action(C3, M, action)


def test_full_action_with_a_key_outside_g_is_rejected():
    # C3 acting trivially on Z/3 plus an entry for (0 1): the entry was
    # kept, never read, and len(gm.action) was 4 for |G| = 3
    C3 = PermGroup.from_cycle_strings(3, ["(0 1 2)"])
    M = FiniteAbelian([3])
    one = {x: x for x in M.elements}
    action = {g: one for g in C3.elements}
    assert len(FiniteGModule(C3, M, action).action) == 3
    action[Perm.from_cycles("(0 1)", 3)] = one
    with pytest.raises(GroupCohError, match=r"^action given for "
                       r"\(0 1\), which is not in G$"):
        FiniteGModule(C3, M, action)


@pytest.mark.parametrize("n,gens,orders,image", [
    # C3 with both non-identity elements negating Z/3: a(s)^2 = 1 != a(s^2)
    (3, ["(0 1 2)"], [3], lambda x: ((-x[0]) % 3,)),
    # V4 with every non-identity element swapping the factors of (Z/2)^2:
    # a((0 1)(2 3)) a((0 2)(1 3)) = 1 != a((0 3)(1 2))
    (4, ["(0 1)(2 3)", "(0 2)(1 3)"], [2, 2], lambda x: x[::-1])],
    ids=["C3 on Z/3", "V4 on (Z/2)^2"])
def test_action_that_is_no_homomorphism_is_rejected(n, gens, orders, image):
    # each element acts additively; only the table of products fails
    G = PermGroup.from_cycle_strings(n, gens)
    M = FiniteAbelian(orders)
    action = {g: {x: image(x) for x in M.elements} for g in G.elements
              if g != Perm.identity(n)}
    with pytest.raises(GroupCohError, match="^action is not a homomorphism$"):
        FiniteGModule(G, M, action)


def test_identity_acting_as_another_map_is_rejected():
    # the zero map for every element is a homomorphism into End(M), not
    # into Aut(M): an input error, not an internal fault in H^1 or H^2
    C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])
    M = FiniteAbelian([4])
    zero = {x: (0,) for x in M.elements}
    with pytest.raises(GroupCohError, match="^the identity must act as "
                       "the identity map$"):
        FiniteGModule(C2, M, {g: zero for g in C2.elements})


@pytest.mark.parametrize("orders,phi", [
    # swaps 1 and 2 of Z/4, an involution of the set; its matrix is [[2]]
    ([4], {(0,): (0,), (1,): (2,), (2,): (1,), (3,): (3,)}),
    # (x, y) -> (x, x + 3y) on Z/2 x Z/4, the linear map of its images of
    # the generators and an involution, but sending the order-2 generator
    # to (1, 1), of order 4; it fixes 2 points, H^0 read off its matrix 4
    ([2, 4], FiniteAbelian([2, 4]).linear_map([(1, 1), (0, 3)]))],
    ids=["swap on Z/4", "ill-defined on Z/2 x Z/4"])
def test_non_additive_action_is_rejected(orders, phi):
    # each is a homomorphism C2 -> Sym(M), but not into Aut(M)
    C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])
    assert all(phi[phi[x]] == x for x in phi)
    with pytest.raises(GroupCohError,
                       match=r"^action of \(0 1\) is not additive$"):
        FiniteGModule(C2, FiniteAbelian(orders), {C2.generators[0]: phi})


# ---------------------------------------------------------------------------
# oracle: the dense Smith-form route to H^n
# ---------------------------------------------------------------------------

def _snf_lattice_basis(gens, a):
    """Basis of the lattice the vectors gens span in Z^a, by Smith form."""
    S, _, Uinv, _, _ = _smith_over_z([[g[i] for g in gens]
                                      for i in range(a)])
    return [[Uinv[i][j] * S[j][j] for i in range(a)]
            for j in range(min(a, len(gens))) if S[j][j]]


def _dense_invariants(gm, n, full=False):
    """Invariant factors of H^n by dense Smith form over Z alone: Z^n from
    the kernel of [F | diag(m)], then B^n in coordinates of a basis of Z^n.
    The coboundaries are the library's normalized ones, or with full set
    the full bar complex of the oracle boundary_matrix_by_products."""
    M = gm.module
    k = len(M.cyclic_orders)
    boundary = boundary_matrix_by_products if full else _boundary_matrix
    cols = boundary(gm, n)
    a = len(cols)
    # one row block per tuple of one more element, of G or of G minus 1
    b = a * (len(gm.elements) if full else len(gm.elements) - 1)
    W = [[c.get(i, 0) for c in cols]
         + [M.cyclic_orders[i % k] if j == i else 0 for j in range(b)]
         for i in range(b)]
    S, _, _, V, _ = _smith_over_z(W)
    rank = sum(1 for i in range(b) if S[i][i])

    def unit(j):
        return [M.cyclic_orders[j % k] if i == j else 0 for i in range(a)]

    zbasis = _snf_lattice_basis([[V[i][j] for i in range(a)]
                                 for j in range(rank, a + b)]
                                + [unit(j) for j in range(a)], a)
    bgens = [unit(j) for j in range(a)]
    if n:
        bgens += [[c.get(i, 0) for i in range(a)]
                  for c in boundary(gm, n - 1)]
    # B^n in Z^n coordinates, solved through the Smith form of the Z basis
    S, U, _, V, _ = _smith_over_z([[z[i] for z in zbasis]
                                   for i in range(a)])
    coords = []
    for col in _snf_lattice_basis(bgens, a):
        w = [sum(u * x for u, x in zip(U[i], col)) for i in range(a)]
        assert all(w[i] % S[i][i] == 0 for i in range(a))
        y = [w[i] // S[i][i] for i in range(a)]
        coords.append([sum(v * x for v, x in zip(V[i], y)) for i in range(a)])
    S = _smith_over_z([[c[i] for c in coords] for i in range(a)])[0]
    return [S[i][i] for i in range(a)]


_GROUPS = {
    "C1": (1, []), "C2": (2, ["(0 1)"]),
    "C3": (3, ["(0 1 2)"]), "C4": (4, ["(0 1 2 3)"]),
    "V4": (4, ["(0 1)(2 3)", "(0 2)(1 3)"]), "C5": (5, ["(0 1 2 3 4)"]),
    "S3": (3, ["(0 1 2)", "(0 1)"]), "C6": (6, ["(0 1 2 3 4 5)"]),
    "D4": (4, ["(0 1 2 3)", "(0 2)"]), "A4": (4, ["(0 1 2)", "(0 1)(2 3)"]),
    "S4": (4, ["(0 1 2 3)", "(0 1)"]),
    "D12": (6, ["(0 1 2 3 4 5)", "(0 5)(1 4)(2 3)"]),
    "C3xS3": (6, ["(0 1 2)", "(3 4 5)", "(3 4)"]),
    "C24": (11, ["(0 1 2 3 4 5 6 7)(8 9 10)"]),
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


# ---------------------------------------------------------------------------
# oracle: the bar route on G against the Sylow route
# ---------------------------------------------------------------------------

def _twisted(group, orders):
    """A seeded action of the named group on M through automorphisms of M,
    one not trivial when some generator images extend to one."""
    n, gens = _GROUPS[group]
    G = PermGroup.from_cycle_strings(n, gens)
    M = FiniteAbelian(orders)
    one = {m: m for m in M.elements}
    modules = []
    for images in product(automorphisms_by_product(M),
                          repeat=len(G.generators)):
        if any(a != one for a in images):
            try:
                modules.append(FiniteGModule.from_generator_action(
                    G, M, dict(zip(G.generators, images))))
            except GroupCohError:
                pass
    if not modules:
        return FiniteGModule.trivial(G, M)
    return random.Random(f"{group} {orders}").choice(modules)


_SYLOW_MODULES = _ORACLE_MODULES + [
    (f"{g} twisted on {M}", lambda g=g, M=M: _twisted(g, M))
    for g in ("A4", "S4", "D12", "C3xS3", "C24")
    for M in ([6], [12], [2, 3], [2, 6])]


@pytest.mark.parametrize("name,maker", _SYLOW_MODULES,
                         ids=[name for name, _ in _SYLOW_MODULES])
def test_sylow_route_matches_the_bar_route_on_g(name, maker):
    # CoclassSet is the bar route on G itself; cohomology() takes the
    # Sylow route unless G is a p-group with p dividing |M|
    rng = random.Random(name)
    gm = maker()
    for n in (1, 2):
        h, bar = cohomology(gm, n), CoclassSet(gm, n)
        assert (h.order, h.invariants) == (bar.order, bar.invariants), n
        reps = h.representatives
        assert all(coboundary(r).is_zero() for r in reps)
        assert len({bar.reduce(r) for r in reps}) == len(reps)
        for r in reps:
            b = _random_cochain(gm, n - 1, rng)
            assert h.reduce(r) == r
            assert h.reduce(r + coboundary(b)) == r
        # every class of the bar route goes to the representative of the
        # same class
        for c in rng.sample(bar.representatives, min(8, bar.order)):
            x = h.reduce(c + coboundary(_random_cochain(gm, n - 1, rng)))
            assert x in reps and bar.reduce(x) == c


_MATRIX_MODULES = _ORACLE_MODULES + [
    ("S4 trivial on [2, 2]", lambda: _trivial("S4", [2, 2])),
    ("S4 on V4 by conjugation", s4_on_v4)]


@pytest.mark.parametrize("name,maker", _MATRIX_MODULES,
                         ids=[name for name, _ in _MATRIX_MODULES])
def test_boundary_matrix_matches_perm_products(name, maker):
    # the library stores only the normalized d^n: the full matrix of the
    # oracle at the tuples that hold no identity element
    gm = maker()
    for n in (0, 1, 2):
        assert _boundary_matrix(gm, n) == normalized_part(
            gm, n, boundary_matrix_by_products(gm, n)), n


_NORMALIZATION_MODULES = [
    ("C2 trivial on Z/2", lambda: _trivial("C2", [2])),
    ("C2 trivial on Z/2 x Z/2", lambda: _trivial("C2", [2, 2])),
    ("C3 trivial on Z/3", lambda: _trivial("C3", [3])),
    ("C4 trivial on Z/2", lambda: _trivial("C4", [2])),
    ("V4 trivial on Z/2", lambda: _trivial("V4", [2])),
    ("C2 by inversion on Z/4", lambda: _cyclic_by_multiplier(2, 4, -1)),
    ("C2 by inversion on Z/9", lambda: _cyclic_by_multiplier(2, 9, -1)),
    ("C3 on Z/7 by 2x", lambda: _cyclic_by_multiplier(3, 7, 2)),
    ("C4 on Z/5 by 2x", lambda: _cyclic_by_multiplier(4, 5, 2)),
    ("S3 on Z/3 by sign", s3_c3_sign)]


@pytest.mark.parametrize("name,maker", _NORMALIZATION_MODULES,
                         ids=[name for name, _ in _NORMALIZATION_MODULES])
def test_normalized_complex_has_the_cohomology_of_the_full_one(name, maker):
    # H^n of the full bar complex by the dense route on the oracle's full
    # matrices: the normalized complex must give the same group
    gm = maker()
    for n in (0, 1, 2):
        h = cohomology(gm, n)
        full = _dense_invariants(gm, n, full=True)
        assert h.order == math.prod(full), n
        assert [s for s in h.invariants if s > 1] == \
            [s for s in full if s > 1], n


def test_cohomology_is_built_once_per_module_and_degree(monkeypatch):
    # every (module, degree) is built once, the modules over Sylow
    # subgroups, which are kept on the module, included
    built = []
    for cls in (CoclassSet, SylowCoclassSet):
        def spy(self, gm, degree, init=cls.__init__):
            built.append((gm, degree))
            init(self, gm, degree)
        monkeypatch.setattr(cls, "__init__", spy)
    gm = s3_on_v4()
    for n in (0, 1, 2):
        assert cohomology(gm, n) is cohomology(gm, n)
    assert cohomology(gm, 1) is not cohomology(s3_on_v4(), 1)
    built.clear()
    gm = s3_c3_sign()
    for _ in range(2):
        h1 = cohomology(gm, 1)
        _, bij = h1_via_hol(gm)
        cohomology(gm, 2)
        assert set(bij.values()) == set(h1.representatives)
    sylow = gm._sylow[3]
    assert sylow.group.order == 3 and list(gm._sylow) == [3]
    assert sorted(built, key=lambda b: (b[1], b[0] is sylow)) == \
        [(gm, 1), (sylow, 1), (gm, 2), (sylow, 2)]


def test_stored_coboundaries_survive_every_caller():
    # the matrices are kept on the module and handed out as they are, so
    # no caller may change them
    X = s3_c3_sign()
    W = _trivial("S3", [3])
    for gm in (X, W):
        for n in (0, 1, 2):
            cohomology(gm, n).representatives
    h1_via_hol(X)
    for z1 in cohomology(X, 1).representatives:
        for z2 in cohomology(X, 1).representatives:
            cohomology(W, 2).reduce(cup11(
                X, X, W, z1, z2, lambda x, y: ((x[0] * y[0]) % 3,)))
    for gm in (X, W):
        for n in (0, 1, 2):
            assert _boundary_matrix(gm, n) is _boundary_matrix(gm, n)
            assert _boundary_matrix(gm, n) == normalized_part(
                gm, n, boundary_matrix_by_products(gm, n)), n


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
    psi = crossed_to_hol(gm, Cochain.zero(gm, 1))
    # every psi(g) fixes the zero element of M
    zero_idx = gm.module.elements.index(gm.module.zero())
    assert all(p(zero_idx) == zero_idx for p in psi.values())


def test_crossed_to_hol_coboundary_is_translation_conjugate():
    gm = s3_c3_sign()
    psi0 = crossed_to_hol(gm, Cochain.zero(gm, 1))
    x = (1,)
    z = coboundary(Cochain(gm, 0, {(): x}))
    psi = crossed_to_hol(gm, z)
    # conjugation by translation-by-u realizes the cocycle u - g.u, so the
    # conjugator matching d0(x) = g.x - x is translation by -x
    M = gm.module
    tau = M.affine({m: m for m in M.elements}, M.neg(x))
    taui = tau.inverse()
    assert all(psi[g] == tau * psi0[g] * taui for g in gm.elements)


def test_crossed_to_hol_nonzero_is_iso():
    gm = s3_c3_sign()
    h1 = cohomology(gm, 1)
    for rep in h1.representatives:
        if rep.is_zero():
            continue
        psi = crossed_to_hol(gm, rep)
        assert len(set(psi.values())) == 6 == holomorph_group(gm.module).order


def test_crossed_to_hol_does_not_list_aut_m():
    # C2 acting trivially on (Z/2)^4, whose Aut M has 20,160 elements
    C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])
    gm = FiniteGModule.trivial(C2, FiniteAbelian([2, 2, 2, 2]))
    m = (1, 0, 1, 1)
    z = Cochain(gm, 1, {(g,): m if g.to_cycles() != "()" else (0,) * 4
                        for g in gm.elements})
    start = time.perf_counter()
    psi = crossed_to_hol(gm, z)
    assert time.perf_counter() - start < 1
    pts = gm.module.elements
    assert [pts[psi[g](0)] for g in sorted(gm.elements)] == [(0,) * 4, m]


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
    assert len(set(r.vector for r in bij.values())) == expected


def test_h1_via_hol_trivial_group():
    G1 = PermGroup(1, [])
    gm = FiniteGModule.trivial(G1, FiniteAbelian([4]))
    classes, _ = h1_via_hol(gm)
    assert len(classes) == 1


def test_h1_via_hol_memory():
    # 4,096 classes: (Z/2)^3 acting trivially on (Z/2)^4.  Holding a dict
    # table beside each class's vector peaked at 8.1 MB; the vectors alone
    # take 4.0 MB
    G = PermGroup.from_cycle_strings(6, ["(0 1)", "(2 3)", "(4 5)"])
    gm = FiniteGModule.trivial(G, FiniteAbelian([2, 2, 2, 2]))
    tracemalloc.start()
    try:
        classes, _ = h1_via_hol(gm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == 4096
    assert peak < 6e6, peak


def _values(gm, vector):
    """The values on sorted G of a 1-cochain's coordinate vector."""
    k = len(gm.module.cyclic_orders)
    return tuple(vector[i:i + k] for i in range(0, len(vector), k))


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


def _hol_modules(group, orders):
    """The trivial action of the named group on M, and up to six seeded
    random generator actions, kept when consistent."""
    n, gens = _GROUPS[group]
    G = PermGroup.from_cycle_strings(n, gens)
    M = FiniteAbelian(orders)
    auts = automorphisms_by_product(M)
    rng = random.Random(f"{group} {orders}")
    modules = [FiniteGModule.trivial(G, M)]
    for _ in range(6):
        try:
            modules.append(FiniteGModule.from_generator_action(
                G, M, {g: rng.choice(auts) for g in G.generators}))
        except GroupCohError:
            pass
    return modules


@pytest.mark.parametrize("group,orders", _HOL_CASES,
                         ids=[f"{g}-{M}" for g, M in _HOL_CASES])
def test_hol_lifts_match_scan_of_all_maps(group, orders):
    for gm in _hol_modules(group, orders):
        found = [_values(gm, t) for t in holomorph_homs_over_phi(gm)]
        assert len(set(found)) == len(found)
        assert set(found) == set(_crossed_homs_by_scan(gm))


def _classes_by_least_remaining(gm):
    """The M-conjugacy classes of crossed homomorphisms, each as its least
    tuple of values on sorted G, found by popping the least remaining tuple
    and discarding its conjugates by every element of M."""
    M, els = gm.module, gm.elements
    remaining = {_values(gm, t) for t in holomorph_homs_over_phi(gm)}
    classes = []
    while remaining:
        t = min(remaining)
        remaining.remove(t)
        classes.append(t)
        for u in M.elements:
            remaining.discard(tuple(M.add(u, M.add(x, M.neg(gm.act(g, u))))
                                    for g, x in zip(els, t)))
    return classes


@pytest.mark.parametrize("group,orders", _HOL_CASES,
                         ids=[f"{g}-{M}" for g, M in _HOL_CASES])
def test_h1_via_hol_classes_in_order_of_least_remaining(group, orders):
    for gm in _hol_modules(group, orders):
        classes, _ = h1_via_hol(gm)
        assert [tuple(c(g) for g in gm.elements) for c in classes] == \
            _classes_by_least_remaining(gm)


def test_h1_matrix_hol_agreement():
    """|H^1| from linear algebra equals the Hol-class count on a matrix of
    modules (Thm H^1 at finite level)."""
    for gm in [c2_trivial(), s3_c3_sign(), s3_on_v4(), c4_inversion()]:
        classes, _ = h1_via_hol(gm)
        assert len(classes) == cohomology(gm, 1).order


def test_inverse_coclass_pairing_sign_modules():
    # for M = C3 with even-order G acting through sign: z and -z give
    # Hol-conjugate homomorphisms
    gm = s3_c3_sign()
    h1 = cohomology(gm, 1)
    hol = holomorph_group(gm.module)
    seen = False
    for rep in h1.representatives:
        if rep.is_zero():
            continue
        seen = True
        psi = crossed_to_hol(gm, rep)
        psim = crossed_to_hol(gm, -rep)
        conjugate = False
        for c in hol.elements:
            ci = c.inverse()
            if all(psim[g] == c * psi[g] * ci for g in gm.elements):
                conjugate = True
                break
        assert conjugate
    assert seen


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


_D4_IN_S4 = ["(0 1 2 3)", "(0 2)"]


_COR_RES_PAIRS = [
    ("S3 on Z/3 by sign > C3", s3_c3_sign, ["(0 1 2)"], 3),
    ("S3 on Z/3 by sign > C2", s3_c3_sign, ["(0 1)"], 3),
    ("S3 trivial on Z/2 x Z/4 > C2", lambda: _trivial("S3", [2, 4]),
     ["(0 1)"], 3),
    ("A4 trivial on Z/2 > V4", lambda: _trivial("A4", [2]),
     ["(0 1)(2 3)", "(0 2)(1 3)"], 4),
    ("A4 twisted on Z/2 x Z/6 > V4", lambda: _twisted("A4", [2, 6]),
     ["(0 1)(2 3)", "(0 2)(1 3)"], 4),
    ("S4 trivial on Z/2 x Z/2 > D4", lambda: _trivial("S4", [2, 2]),
     _D4_IN_S4, 4),
    ("S4 on V4 by conjugation > D4", s4_on_v4, _D4_IN_S4, 4)]


@pytest.mark.parametrize("name,maker,H,n", _COR_RES_PAIRS,
                         ids=[name for name, *_ in _COR_RES_PAIRS])
def test_cor_res_is_index_times_identity_degree2(name, maker, H, n):
    # cor res = [G:H] on H^2, by the degree-2 transfer
    gm = maker()
    H = PermGroup.from_cycle_strings(n, H)
    index = gm.group.order // H.order
    h2 = cohomology(gm, 2)
    assert h2.order > 1
    for rep in h2.representatives:
        res = res_cor(gm, H, rep, "res")
        assert coboundary(res).is_zero()
        cor = res_cor(gm, H, res, "cor")
        assert coboundary(cor).is_zero()
        assert h2.same_class(cor, rep.smul(index))


def test_cor_needs_a_cochain_over_the_subgroup():
    gm = s3_c3_sign()
    H = PermGroup.from_cycle_strings(3, ["(0 1 2)"])
    with pytest.raises(GroupCohError, match="over H"):
        res_cor(gm, H, Cochain.zero(gm, 2), "cor")
    with pytest.raises(GroupCohError, match="degrees 0 to 2"):
        res_cor(gm, H, Cochain.zero(gm, 3), "res")


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


def test_lemma53_degree2():
    # H^2(S3, (Z/2)^2) = (Z/2)^2 and every additive map to Z/2 is linear for
    # the trivial action; cor res is 3 = 1 on C2 and 2 = 0 on C3
    X = _trivial("S3", [2, 2])
    Y = _trivial("S3", [2])
    assert cohomology(X, 2).order == 4
    zero = (0,)
    maps = [{m: ((a * m[0] + b * m[1]) % 2,) for m in X.module.elements}
            for a in (0, 1) for b in (0, 1)]
    for Htexts in (["(0 1)"], ["(0 1 2)"], [], ["(0 1 2)", "(0 1)"]):
        H = PermGroup.from_cycle_strings(3, Htexts)
        for f in maps:
            assert lemma53_check(X, Y, H, f, 2) == (True, None)
    # a sign twist of Z/3 over C3: f~ is twice f
    Z = s3_c3_sign()
    C3 = PermGroup.from_cycle_strings(3, ["(0 1 2)"])
    f = {m: m for m in Z.module.elements}
    assert cohomology(Z, 2).order == 3
    assert lemma53_check(Z, Z, C3, f, 2) == (True, None)
    assert any(v != zero for v in induced_map(Z, Z, C3, f).values())


def test_lemma53_rejects_degree_three():
    gm = c2_trivial()
    with pytest.raises(GroupCohError, match="n must be"):
        lemma53_check(gm, gm, gm.group, {m: m for m in gm.module.elements}, 3)


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
