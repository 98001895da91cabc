"""Tests for coclass.permstruct.

Holomorph orders and the Sym-equality cases follow the classical list;
structure counts for C4 (2 on the cyclic image, 6 on the trivial image)
are frozen from direct enumeration oracles.
"""

import math
import random
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coclass import _kernels
from coclass.permstruct import (
    FiniteAbelian,
    Perm,
    PermGroup,
    PermStructError,
    UnsupportedDegree,
    _isomorphisms,
    _small_generating_set,
    centralizer_in_sym,
    count_g_structures,
    extend_hom,
    orbits,
    stable_partitions,
    subgroup_conjugates,
)
from helpers import (
    automorphisms_by_product,
    block_sizes,
    cayley_images,
    conjugate_group,
    cyclic_orders_up_to,
    holomorph_group,
    in_wreath_product,
    is_transitive,
    maximal_order_elements,
    multiplication_closed,
    resolvent_image,
    s4_to_s3_map,
    same_group,
    sign_map,
    torsor_structures,
)


# ---------------------------------------------------------------------------
# permutations and cycle notation
# ---------------------------------------------------------------------------

def test_cycle_round_trip():
    for text, n in [("(0 1 2)(3 4)", 5), ("()", 4), ("(0 3)", 4), ("(1 2 3 4 5 6 7)", 8)]:
        p = Perm.from_cycles(text, n)
        assert Perm.from_cycles(p.to_cycles(), n) == p


def test_perm_composition_convention():
    # (p * q)(x) = p(q(x))
    p = Perm.from_cycles("(0 1)", 3)
    q = Perm.from_cycles("(1 2)", 3)
    assert (p * q).to_cycles() == "(0 1 2)"
    assert (q * p).to_cycles() == "(0 2 1)"


def test_perm_invalid():
    with pytest.raises(PermStructError):
        Perm((0, 0, 1))
    with pytest.raises(PermStructError):
        Perm((0, 0))
    with pytest.raises(PermStructError):
        Perm.from_cycles("(0 9)", 4)


def test_mixed_degree_product_raises():
    # products skip the bijection check, so the degrees are compared instead
    p, q = Perm.from_cycles("(0 1)", 2), Perm.from_cycles("(0 1 2)", 3)
    for a, b in [(p, q), (q, p)]:
        with pytest.raises(PermStructError):
            a * b


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))))
def test_perm_inverse_property(images):
    p = Perm(tuple(images))
    assert p * p.inverse() == Perm.identity(6)
    assert Perm.from_cycles(p.to_cycles(), 6) == p


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def test_perm_order_matches_repeated_multiplication():
    e = Perm.identity(5)
    for images in permutations(range(5)):
        p = Perm(images)
        k, power = 1, p
        while power != e:
            power, k = power * p, k + 1
        assert p.order() == k


def test_symmetric_orders():
    for n, order in [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)]:
        assert PermGroup.symmetric(n).order == order


def test_order_at_most_stops_past_the_cap(monkeypatch):
    products = []
    mul = Perm.__mul__
    monkeypatch.setattr(Perm, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    big = PermGroup.from_cycle_strings(9, ["(0 1 2 3 4 5 6 7 8)", "(0 1)"])
    assert not big.order_at_most(24)
    assert len(products) <= 2 * 25  # 9! = 362880 elements never built
    S4 = PermGroup.symmetric(4)
    assert S4.order_at_most(24) and not S4.order_at_most(23)
    assert S4.order == 24


def test_group_closure_divides():
    G = PermGroup.from_cycle_strings(4, ["(0 1 2 3)", "(0 2)"])
    assert G.order == 8  # dihedral
    assert 24 % G.order == 0
    assert multiplication_closed(G)


# ---------------------------------------------------------------------------
# finite abelian groups and holomorphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orders,aut", [
    ([2], 1), ([3], 2), ([4], 2), ([5], 4), ([6], 2), ([7], 6), ([8], 4),
    ([2, 2], 6), ([2, 4], 8), ([2, 2, 2], 168),
])
def test_automorphism_counts(orders, aut):
    # |GL_k(F_2)| for elementary 2-groups; Euler phi for cyclic
    M = FiniteAbelian(orders)
    assert M.aut_order() == aut


@pytest.mark.parametrize("orders", [[3], [4], [5], [6], [2, 2], [2, 4], [8], [7], [2, 2, 2]])
def test_holomorph_order(orders):
    # |Hol M| = |M| * |Aut M| by formula; closing the generators checks it
    M = FiniteAbelian(orders)
    assert M.order * M.aut_order() == len(holomorph_group(M).elements)


_SMALL_MODULES = [o for o in cyclic_orders_up_to(16) if o != (2, 2, 2, 2)]


@pytest.mark.parametrize("orders", _SMALL_MODULES,
                         ids=[",".join(map(str, o)) for o in _SMALL_MODULES])
def test_automorphisms_match_product_search(orders):
    M = FiniteAbelian(orders)
    assert M.aut_order() == len(automorphisms_by_product(M))


def test_automorphisms_of_elementary_abelian_16():
    # |GL_4(F_2)| = 15 * 14 * 12 * 8; listing them by product takes 10 s
    assert FiniteAbelian([2, 2, 2, 2]).aut_order() == 20160


def test_holomorph_semidirect_law():
    # lambda_{a,t} o lambda_{b,u} = lambda_{ab, a(u)+t}
    M = FiniteAbelian([2, 4])
    auts = automorphisms_by_product(M)
    a, b = auts[1], auts[-1]
    t, u = (1, 2), (0, 3)
    lhs = M.affine(a, t) * M.affine(b, u)
    ab = {x: a[b[x]] for x in M.elements}
    rhs = M.affine(ab, M.add(a[u], t))
    assert lhs == rhs


def test_holomorph_equals_sym_exactly_four_cases():
    cases = {(2,): True, (3,): True, (2, 2): True, (4,): False,
             (5,): False, (6,): False, (7,): False, (8,): False,
             (2, 4): False, (2, 2, 2): False}
    for orders, expect in cases.items():
        H = holomorph_group(FiniteAbelian(list(orders)))
        assert same_group(H, PermGroup.symmetric(H.n)) == expect, orders


def test_holomorph_c3_is_s3_and_v4_is_s4():
    for orders, hol in [([3], 6), ([2, 2], 24), ([4], 8)]:
        M = FiniteAbelian(orders)
        assert M.order * M.aut_order() == hol


def test_maximal_order_elements():
    M = FiniteAbelian([2, 4])
    assert len(maximal_order_elements(M)) == 4  # (x, y) with y odd


# ---------------------------------------------------------------------------
# Cayley and centralizers
# ---------------------------------------------------------------------------

def test_cayley_c2():
    C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])
    L, R = cayley_images(C2)
    assert same_group(L, R)
    assert sorted(p.to_cycles() for p in L.elements) == ["()", "(0 1)"]


def test_cayley_c4_abelian_left_equals_right():
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    L, R = cayley_images(C4)
    assert same_group(L, R)
    assert L.order == 4


def test_cayley_s3_mutual_centralizers():
    S3 = PermGroup.symmetric(3)
    L, R = cayley_images(S3)
    assert L.order == R.order == 6
    assert is_transitive(L) and is_transitive(R)
    assert all(a * b == b * a for a in L.elements for b in R.elements)
    assert same_group(centralizer_in_sym(L), R)
    assert same_group(centralizer_in_sym(R), L)


def test_double_centralizer_on_cayley_images():
    for G in [PermGroup.from_cycle_strings(3, ["(0 1 2)"]),
              PermGroup.from_cycle_strings(4, ["(0 1 2 3)"]),
              PermGroup.symmetric(3),
              PermGroup.from_cycle_strings(4, ["(0 1)(2 3)", "(0 2)(1 3)"])]:
        L, _ = cayley_images(G)
        assert same_group(centralizer_in_sym(centralizer_in_sym(L)), L)


def test_centralizer_of_double_transposition_is_d4():
    H = PermGroup.from_cycle_strings(4, ["(0 2)(1 3)"])
    C = centralizer_in_sym(H)
    assert C.order == 8
    assert Perm.from_cycles("(0 1 2 3)", 4) in C  # dihedral shape


def test_centralizer_of_sym_is_trivial():
    for n in [3, 4, 5]:
        assert centralizer_in_sym(PermGroup.symmetric(n)).order == 1


def test_centralizer_degree_cap():
    with pytest.raises(UnsupportedDegree):
        centralizer_in_sym(PermGroup(9, [Perm(tuple(range(9)))]))


def _cycle_types(n, largest=None):
    """The partitions of n, parts in decreasing order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _cycle_types(n - first, first):
            yield (first,) + rest


def _perm_of_type(cycle_type):
    images, at = [], 0
    for length in cycle_type:
        images += [at + (i + 1) % length for i in range(length)]
        at += length
    return Perm(tuple(images))


CENTRALIZER_CASES = ([t for n in range(1, 8) for t in _cycle_types(n)]
                     + [(8,), (2, 1, 1, 1, 1, 1, 1), (2, 2, 2, 2)])


@pytest.mark.parametrize("cycle_type", CENTRALIZER_CASES)
def test_centralizer_order_closed_form(cycle_type):
    # |C(s)| = prod i^{m_i} m_i! where m_i cycles of s have length i
    want = 1
    for length in set(cycle_type):
        m = cycle_type.count(length)
        want *= length ** m * math.factorial(m)
    s = _perm_of_type(cycle_type)
    C = centralizer_in_sym(PermGroup(s.n, [s]))
    assert C.order == want
    assert all(c * s == s * c for c in C.elements)
    # the short generator list spans the whole centralizer
    assert len(C.generators) <= 8
    assert same_group(PermGroup(s.n, C.generators), C)


def _centralizer_by_scan(n, gens):
    """The centralizer by definition, as an oracle: every permutation of
    {0..n-1} commuting with each generator, as image tuples in
    lexicographic order."""
    return [q for q in permutations(range(n))
            if all(q[g[i]] == g[q[i]] for g in gens for i in range(n))]


def _assert_centralizer_matches_scan(n, gens):
    images = [g.images for g in gens]
    want = _centralizer_by_scan(n, images)
    assert _kernels.perm_centralizer(n, images) == want
    C = centralizer_in_sym(PermGroup(n, gens))
    assert sorted(c.images for c in C.elements) == want


def test_centralizer_matches_scan_on_random_subgroups():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = [Perm(tuple(rng.sample(range(n), n)))
                for _ in range(rng.randint(1, 3))]
        _assert_centralizer_matches_scan(n, gens)


@pytest.mark.parametrize("cycle_type", list(_cycle_types(8)))
def test_centralizer_matches_scan_on_cycle_types_of_sym8(cycle_type):
    _assert_centralizer_matches_scan(8, [_perm_of_type(cycle_type)])


def test_centralizer_of_trivial_group_is_sym8():
    start = time.perf_counter()
    C = centralizer_in_sym(PermGroup(8, []))
    assert C.order == math.factorial(8)
    assert time.perf_counter() - start < 5


# ---------------------------------------------------------------------------
# G-structures
# ---------------------------------------------------------------------------

def test_c4_structures_on_itself():
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    assert count_g_structures(C4, C4) == 2


def test_c4_structures_on_trivial():
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    assert count_g_structures(PermGroup(4, []), C4) == 6


def test_s4_structure_unique():
    S4 = PermGroup.symmetric(4)
    assert count_g_structures(S4, S4) == 1


def test_structures_zero_when_not_contained():
    S4 = PermGroup.symmetric(4)
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    assert count_g_structures(S4, C4) == 0


def test_structures_conjugation_invariant():
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    img = PermGroup.from_cycle_strings(4, ["(0 2)(1 3)"])
    base = count_g_structures(img, C4)
    s = Perm.from_cycles("(0 1)", 4)
    assert count_g_structures(conjugate_group(img, s),
                              conjugate_group(C4, s)) == base


# the subgroups this file uses, up to Sym(6)
_SUBGROUP_GENS = {
    "1 in S2": (2, []), "C2": (2, ["(0 1)"]), "C3": (3, ["(0 1 2)"]),
    "S3": (3, ["(0 1 2)", "(0 1)"]), "1 in S4": (4, []),
    "C4": (4, ["(0 1 2 3)"]), "<(0 2)(1 3)>": (4, ["(0 2)(1 3)"]),
    "V4": (4, ["(0 1)(2 3)", "(0 2)(1 3)"]), "D4": (4, ["(0 1 2 3)", "(0 2)"]),
    "S4": (4, ["(0 1 2 3)", "(0 1)"]), "S5": (5, ["(0 1 2 3 4)", "(0 1)"]),
}
_SUBGROUPS = {name: PermGroup.from_cycle_strings(n, gens)
              for name, (n, gens) in _SUBGROUP_GENS.items()}
_SUBGROUPS["S3 left-regular"] = cayley_images(PermGroup.symmetric(3))[0]


@pytest.mark.parametrize("name", sorted(_SUBGROUPS))
def test_subgroup_conjugates_match_scan_of_sym(name):
    G = _SUBGROUPS[name]
    conjugates = subgroup_conjugates(G)
    assert conjugates[0] == G.elements
    assert len(set(conjugates)) == len(conjugates)
    scan = {frozenset(g.conjugate(Perm(s)) for g in G.elements)
            for s in permutations(range(G.n))}
    assert set(conjugates) == scan


def test_c8_structures_on_itself_in_sym8():
    # the one conjugate of C8 containing C8 is C8; Aut C8 has 4 elements
    # and C8 is abelian, so each is its own class
    C8 = PermGroup.from_cycle_strings(8, ["(0 1 2 3 4 5 6 7)"])
    start = time.perf_counter()
    assert count_g_structures(C8, C8) == 4
    assert time.perf_counter() - start < 2


def _g_structures_by_search(image, G):
    """The count by definition, as an oracle: for each conjugate G' of G
    containing image, the isomorphisms G' -> G found by search, taken up to
    post-composition with the inner automorphisms of G."""
    count = 0
    for conj_els in subgroup_conjugates(G):
        if not image.elements <= conj_els:
            continue
        dom = sorted(conj_els)
        isos = [tuple(phi[a] for a in dom)
                for phi in _isomorphisms(PermGroup(G.n, dom), G)]
        count += len(orbits(isos, G.generators, lambda c, imgs: tuple(
            b.conjugate(c) for b in imgs)))
    return count


@pytest.mark.parametrize("image_name,name", [
    (i, g) for g in sorted(_SUBGROUPS) for i in ["1"] + sorted(_SUBGROUPS)
    if i == "1" or _SUBGROUPS[i].n == _SUBGROUPS[g].n])
def test_structure_count_matches_search(image_name, name):
    G = _SUBGROUPS[name]
    image = PermGroup(G.n, []) if image_name == "1" else _SUBGROUPS[image_name]
    assert count_g_structures(image, G) == _g_structures_by_search(image, G)


def _random_structure_pairs(count, seed=8):
    """(image, G) in Sym(2..6) with |G| <= 120; the image mostly lies in a
    random conjugate of G, sometimes it is one random permutation."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.randint(2, 6)
        G = PermGroup(n, [Perm(tuple(rng.sample(range(n), n)))
                          for _ in range(rng.randint(1, 2))])
        if not G.order_at_most(120):
            continue
        s = Perm(tuple(rng.sample(range(n), n)))
        if rng.random() < 0.25:
            image = PermGroup(n, [s])
        else:
            els = sorted(G.elements)
            image = PermGroup(n, [rng.choice(els).conjugate(s)
                                  for _ in range(rng.randint(0, 2))])
        pairs.append((image, G))
    return pairs


@pytest.mark.parametrize("image,G", _random_structure_pairs(40))
def test_structure_count_matches_search_on_random_pairs(image, G):
    assert count_g_structures(image, G) == _g_structures_by_search(image, G)


def test_regular_v8_structures_on_trivial_image_in_sym8():
    # 30 conjugates of the regular (Z/2)^3, each with |GL_3(F_2)| = 168
    V8 = PermGroup.from_cycle_strings(8, [
        "(0 1)(2 3)(4 5)(6 7)", "(0 2)(1 3)(4 6)(5 7)", "(0 4)(1 5)(2 6)(3 7)"])
    start = time.perf_counter()
    assert count_g_structures(PermGroup(8, []), V8) == 5040
    assert time.perf_counter() - start < 1


def test_order_64_structures_in_sym8():
    G = PermGroup.from_cycle_strings(8, ["(0 1 2 3 4 5 6 7)", "(0 4)"])
    image = PermGroup.from_cycle_strings(8, ["(0 1)(2 3)(4 5)(6 7)"])
    start = time.perf_counter()
    assert count_g_structures(image, G) == 60
    assert time.perf_counter() - start < 5


def _isomorphisms_by_product(A, B):
    """Every tuple of images of A's small generating set, of the same
    orders, that extends to a bijective homomorphism: the unpruned search,
    kept as the oracle."""
    if A.order != B.order:
        return []
    gens = _small_generating_set(A)
    b_els = sorted(B.elements)
    cand = [[b for b in b_els if b.order() == g.order()] for g in gens]
    out = []
    for imgs in product(*cand):
        phi = extend_hom(A.n, dict(zip(gens, imgs)), Perm.__mul__,
                         Perm.identity(B.n))
        if phi is not None and len(set(phi.values())) == A.order:
            out.append(phi)
    return out


@pytest.mark.parametrize("a,b", [
    (a, b) for a in sorted(_SUBGROUPS) for b in sorted(_SUBGROUPS)
    if _SUBGROUPS[a].order == _SUBGROUPS[b].order])
def test_isomorphisms_match_product_search(a, b):
    A, B = _SUBGROUPS[a], _SUBGROUPS[b]
    assert [list(phi.items()) for phi in _isomorphisms(A, B)] == \
        [list(phi.items()) for phi in _isomorphisms_by_product(A, B)]


def _small_generating_set_by_reclosing(group):
    """The greedy choice with each span closed afresh from the elements
    chosen so far, as the oracle for the span grown coset by coset."""
    els = sorted(group.elements, key=lambda p: (-p.order(), p.images))
    chosen = []
    span = {Perm.identity(group.n)}
    for e in els:
        if e in span:
            continue
        chosen.append(e)
        span = PermGroup(group.n, chosen).elements
        if len(span) == group.order:
            break
    return chosen


@pytest.mark.parametrize("name", sorted(_SUBGROUPS))
def test_small_generating_set_matches_reclosing(name):
    G = _SUBGROUPS[name]
    assert _small_generating_set(G) == _small_generating_set_by_reclosing(G)


@pytest.mark.parametrize("cycle_type", list(_cycle_types(8)))
def test_small_generating_set_matches_reclosing_on_centralizers_in_sym8(
        cycle_type):
    C = centralizer_in_sym(PermGroup(8, [_perm_of_type(cycle_type)]))
    assert list(C.generators) == _small_generating_set_by_reclosing(C)


@pytest.mark.parametrize("gens,n,count", [
    (["(0 1 2 3)"], 4, 2),                   # Aut C4 = C2
    (["(0 1)(2 3)", "(0 2)(1 3)"], 4, 6),    # Aut V4 = S3
    (["(0 1 2)", "(0 1)"], 3, 6),            # Aut S3 = S3
    (["(0 1 2 3)", "(0 2)"], 4, 8),          # Aut D4 = D4
])
def test_automorphism_group_orders_by_isomorphism_search(gens, n, count):
    A = PermGroup.from_cycle_strings(n, gens)
    isos = list(_isomorphisms(A, A))
    assert len(isos) == count
    for phi in isos:
        assert set(phi) == set(phi.values()) == A.elements
        assert all(phi[x * y] == phi[x] * phi[y]
                   for x in A.elements for y in A.elements)


# ---------------------------------------------------------------------------
# resolvent images
# ---------------------------------------------------------------------------

def test_sign_image_of_s4():
    S4 = PermGroup.symmetric(4)
    assert resolvent_image(S4, sign_map(S4)).order == 2


def test_rho43_kernel_is_v4():
    V4 = PermGroup.from_cycle_strings(4, ["(0 1)(2 3)", "(0 2)(1 3)"])
    assert resolvent_image(V4, s4_to_s3_map(V4)).order == 1
    S4 = PermGroup.symmetric(4)
    assert resolvent_image(S4, s4_to_s3_map(S4)).order == 6


def test_resolvent_identity():
    S4 = PermGroup.symmetric(4)
    rho = {g: g for g in S4.generators}
    assert same_group(resolvent_image(S4, rho), S4)


def test_resolvent_functorial():
    # composing rho43 with sign on the image equals composing maps directly
    S4 = PermGroup.symmetric(4)
    img3 = resolvent_image(S4, s4_to_s3_map(S4))
    assert resolvent_image(img3, sign_map(img3)).order == 2


def test_resolvent_rejects_non_homomorphism():
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    bad = {C4.generators[0]: Perm.from_cycles("(0 1 2)", 3)}  # 3 does not divide 4
    with pytest.raises(PermStructError):
        resolvent_image(C4, bad)


def test_resolvent_rejects_map_breaking_a_relation():
    # each image has an order dividing its generator's, but (0 1) -> () and
    # (0 1 2) -> (0 1 2) break (0 1)(0 1 2)(0 1) = (0 1 2)^-1
    S3 = PermGroup.symmetric(3)
    rho = {g: g if g.order() == 3 else Perm.identity(3)
           for g in S3.generators}
    with pytest.raises(PermStructError):
        resolvent_image(S3, rho)


# ---------------------------------------------------------------------------
# stable partitions
# ---------------------------------------------------------------------------

def test_partitions_trivial_group_bell4():
    assert len(stable_partitions(PermGroup(4, []))) == 15


def test_partitions_s4_only_trivial():
    parts = stable_partitions(PermGroup.symmetric(4))
    assert len(parts) == 2
    assert {block_sizes(p) for p in parts} == {(4,), (1, 1, 1, 1)}


def test_partitions_d4_opposite_pairs():
    D4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)", "(0 2)"])
    parts = stable_partitions(D4)
    two_two = [p for p in parts if block_sizes(p) == (2, 2)]
    assert two_two == [((0, 2), (1, 3))]
    assert in_wreath_product(D4, two_two[0])


def test_partitions_exhaustive_cross_check():
    # every returned partition is stable under all elements; no other
    # partition of n <= 6 points is stable (direct double check)
    from coclass.permstruct import _set_partitions
    H = PermGroup.from_cycle_strings(6, ["(0 1 2)(3 4)", "(3 4 5)"])
    stable = set(stable_partitions(H))
    for part in _set_partitions(list(range(6))):
        key = tuple(sorted(tuple(sorted(b)) for b in part))
        bset = {frozenset(b) for b in part}
        truly = all(frozenset(g(x) for x in b) in bset
                    for g in H.elements for b in bset)
        assert truly == (key in stable)


# ---------------------------------------------------------------------------
# torsor structures
# ---------------------------------------------------------------------------

def test_torsor_c3():
    C3 = PermGroup.from_cycle_strings(3, ["(0 1 2)"])
    L, _ = cayley_images(C3)
    assert len(torsor_structures(L, C3)) == 1


def test_torsor_trivial_c2():
    C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])
    assert len(torsor_structures(PermGroup(2, []), C2)) == 1


def test_torsor_s3_matches_structures():
    S3 = PermGroup.symmetric(3)
    L, R = cayley_images(S3)
    ts = torsor_structures(L, S3)
    assert len(ts) == count_g_structures(L, R)
    # centralizer passage lands on conjugates of the right image containing L
    for _, cent in ts:
        assert L <= cent
