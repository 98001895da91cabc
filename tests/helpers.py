"""Code that only the tests use, kept out of the library: the Aut M listing
and Hol M built from it, Cayley images and torsor structures, resolvent
images of the sign and Sym(4) -> Sym(3) maps, wreath-product checks on
stable partitions, the crossed-homomorphism map into Hol M, the textbook
coboundary and the coboundary matrix from Perm products with its
normalized part, cochain JSON, residue-field moduli of least irreducibles,
symbols on etale algebras, localization of Kummer data, radical algebras,
Tate-dual twists, Zassenhaus on every input and resultants by the
Euclidean PRS over Q, Newton-form interpolation, Trager norms and
characteristic polynomials by interpolated resultants, roots in an
extension from fully factored Trager norms, the C4/D4 split by a Trager
norm, the C4 model read through the quadratic subfield Q(sqrt d_E), and
root-ball overlap and containment.  The library computes
|Aut M| by formula and builds none of these."""

import json
import math
from fractions import Fraction
from itertools import combinations, product

from coclass import InternalError
from coclass.etalealg import EtaleAlgebra, SquareClass, cubic_resolvent_poly
from coclass.exactpoly import (
    ExactPolyError,
    RationalPoly,
    discriminant,
    factor_rationals,
    has_root_in_extension,
    is_irreducible,
    is_squarefree,
    modp,
    resultant,
)
from coclass.exactpoly import factor
from coclass.exactpoly.extension import _norm_factors
from coclass.exactpoly.roots import ComplexBall
from coclass.groupcoh import Cochain, FiniteGModule, GroupCohError, coboundary
from coclass.kummerh1 import CoclassC3, CoclassV4, KummerError, QuadElem
from coclass.localsym import (
    LocalClass,
    LocalFieldDesc,
    LocalSymError,
    Place,
    SymbolValue,
    UnsupportedLocal,
    _embed_split,
    _mu_logs,
    _TameField,
    hilbert2,
    is_square_padic,
    square_class,
    tame_symbol_residue,
    unit_part_mod,
    vp,
)
from coclass.permstruct import (
    FiniteAbelian,
    Perm,
    PermGroup,
    PermStructError,
    centralizer_in_sym,
    extend_hom,
    orbits,
    subgroup_conjugates,
)
from coclass.quadratic import _frac_sqrt, squarefree_part


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------

def same_group(A: PermGroup, B: PermGroup) -> bool:
    return A.n == B.n and A.elements == B.elements


def conjugate_group(G: PermGroup, by: Perm) -> PermGroup:
    return PermGroup(G.n, [g.conjugate(by) for g in G.generators])


def is_transitive(G: PermGroup) -> bool:
    return len(orbits([0], G.generators, Perm.__call__)[0]) == G.n


def multiplication_closed(G: PermGroup) -> bool:
    els = G.elements
    return all(a * b in els for a in els for b in els)


# ---------------------------------------------------------------------------
# Aut M and Hol M
# ---------------------------------------------------------------------------

def cyclic_orders_up_to(bound):
    """Every tuple of cyclic orders >= 2 whose product is at most bound."""
    out = [()]
    for orders in out:  # the list grows while it is read
        out += [orders + (d,) for d in range(2, bound // math.prod(orders) + 1)]
    return out[1:]


def element_order(M: FiniteAbelian, a) -> int:
    return math.lcm(*(d // math.gcd(x, d) for x, d in zip(a, M.cyclic_orders)))


def automorphisms_by_product(M: FiniteAbelian):
    """Every tuple of images of the cyclic generators, of the same orders,
    whose linear map is bijective, as dicts element -> element in the order
    of itertools.product: Aut M by definition, the oracle for
    FiniteAbelian.aut_order."""
    els = M.elements
    candidates = [[e for e in els if element_order(M, e) == d]
                  for d in M.cyclic_orders]
    out = []
    for imgs in product(*candidates):
        phi = {}
        for x in els:
            acc = M.zero()
            for xi, im in zip(x, imgs):
                acc = M.add(acc, M.smul(xi, im))
            phi[x] = acc
        if len(set(phi.values())) == len(els):
            out.append(phi)
    return out


def holomorph_group(M: FiniteAbelian) -> PermGroup:
    """Hol M = M x| Aut M as the group of affine maps x -> a(x) + t on the
    points of M, generated by the translations and the automorphisms of
    automorphisms_by_product."""
    els = M.elements
    translations = [M.affine(dict(zip(els, els)), t) for t in els]
    auts = [M.affine(phi, M.zero()) for phi in automorphisms_by_product(M)]
    return PermGroup(len(els), translations + auts)


def maximal_order_elements(M: FiniteAbelian):
    m = M.exponent
    return [e for e in M.elements if element_order(M, e) == m]


# ---------------------------------------------------------------------------
# Cayley embeddings and torsor structures
# ---------------------------------------------------------------------------

def cayley_images(G: PermGroup):
    """(left, right) multiplication images of G inside Sym(G).

    Points are the elements of G sorted; left: x -> g x, right: x -> x g^-1.
    Both are simply transitive subgroups of Sym(|G|) centralizing each other.
    """
    els = sorted(G.elements)
    index = {e: i for i, e in enumerate(els)}
    left_gens, right_gens = [], []
    for g in (G.generators or [Perm.identity(G.n)]):
        left_gens.append(Perm(tuple(index[g * x] for x in els)))
        gi = g.inverse()
        right_gens.append(Perm(tuple(index[x * gi] for x in els)))
    m = len(els)
    return PermGroup(m, left_gens), PermGroup(m, right_gens)


def torsor_structures(image: PermGroup, G: PermGroup):
    """Conjugates of the Cayley-left image of G inside Sym(|G|) that
    centralize `image`, each paired with its centralizer (a conjugate of the
    Cayley-right image containing `image`: the matching G-structure side).
    """
    left, _ = cayley_images(G)
    if image.n != left.n:
        raise PermStructError("image must act on the |G| Cayley points")
    img_els = sorted(image.elements)
    out = []
    for conj_els in subgroup_conjugates(left):
        if all(a * b == b * a for a in conj_els for b in img_els):
            Lp = PermGroup(left.n, sorted(conj_els))
            out.append((Lp, centralizer_in_sym(Lp)))
    return out


# ---------------------------------------------------------------------------
# resolvent images
# ---------------------------------------------------------------------------

def resolvent_image(phi_image: PermGroup, rho: dict) -> PermGroup:
    """Image of phi_image under the homomorphism rho, given as a dict from
    (at least) the generators of phi_image to permutations.

    The map is extended to the whole group by extend_hom; inconsistency
    (rho not a homomorphism) raises PermStructError.
    """
    gens = list(phi_image.generators)
    for g in gens:
        if g not in rho:
            raise PermStructError(f"rho not defined on generator {g.to_cycles()}")
    if not gens:
        m = next(iter(rho.values())).n if rho else 1
        return PermGroup(m, [])
    m = rho[gens[0]].n
    images = extend_hom(phi_image.n, {g: rho[g] for g in gens}, Perm.__mul__,
                        Perm.identity(m))
    if images is None:
        raise PermStructError("rho is not a homomorphism")
    return PermGroup(m, sorted(set(images.values())))


def sign_map(G: PermGroup) -> dict:
    """rho data for the sign character Sym(n) -> Sym(2)."""
    swap = Perm((1, 0))
    ident = Perm((0, 1))
    out = {}
    for g in G.generators:
        n_trans = sum(l - 1 for l in g.cycle_type())
        out[g] = swap if n_trans % 2 else ident
    return out


def s4_to_s3_map(G: PermGroup) -> dict:
    """rho data for the natural surjection Sym(4) -> Sym(3) given by the
    action on the three pairings {{01,23}, {02,13}, {03,12}}."""
    if G.n != 4:
        raise PermStructError("expected a subgroup of Sym(4)")
    pairings = [frozenset([frozenset([0, 1]), frozenset([2, 3])]),
                frozenset([frozenset([0, 2]), frozenset([1, 3])]),
                frozenset([frozenset([0, 3]), frozenset([1, 2])])]
    out = {}
    for g in G.generators:
        imgs = []
        for pr in pairings:
            moved = frozenset(frozenset(g(x) for x in blk) for blk in pr)
            imgs.append(pairings.index(moved))
        out[g] = Perm(tuple(imgs))
    return out


# ---------------------------------------------------------------------------
# stable partitions
# ---------------------------------------------------------------------------

def block_sizes(partition) -> tuple:
    return tuple(sorted((len(b) for b in partition), reverse=True))


def in_wreath_product(H: PermGroup, partition) -> bool:
    """Whether H lies in the wreath product S_t wr S_b attached to a
    partition into b blocks of equal size t."""
    bset = {frozenset(b) for b in partition}
    return all(frozenset(g(x) for x in b) in bset
               for g in H.elements for b in bset)


# ---------------------------------------------------------------------------
# G-modules, cochains and the holomorph dictionary
# ---------------------------------------------------------------------------

def fixed_points(gm: FiniteGModule):
    return [m for m in gm.module.elements
            if all(gm.act(g, m) == m for g in gm.group.generators)]


def crossed_to_hol(gm: FiniteGModule, z: Cochain):
    """The homomorphism psi: G -> Hol M, g -> lambda_{phi(g), z(g)}, as a
    dict Perm -> Perm of affine maps (FiniteAbelian.affine)."""
    if z.arity != 1:
        raise GroupCohError("need a 1-cochain")
    if not coboundary(z).is_zero():
        raise GroupCohError("not a 1-cocycle")
    psi = {g: gm.module.affine(gm.action[g], z(g)) for g in gm.elements}
    for g in gm.elements:
        for h in gm.elements:
            if psi[g * h] != psi[g] * psi[h]:
                raise InternalError("psi not a homomorphism (internal error)")
    return psi


def boundary_matrix_by_products(gm: FiniteGModule, n: int):
    """The coboundary C^n -> C^{n+1} as the library's _boundary_matrix gives
    it (|G|^n * k sparse columns, one per C^n coordinate, each a dict from
    C^{n+1} coordinate to nonzero entry), built from Perm products and the
    positions of tuples of group elements, as an oracle for its index
    table."""
    if n not in (0, 1, 2):
        raise GroupCohError("degree must be 0..2")
    k = len(gm.module.cyclic_orders)
    cols = [{} for _ in range(len(gm.elements) ** n * k)]
    act = {g: gm.action_matrix(g) for g in gm.elements}
    pos = gm.position

    def add_block(dst_i, src_t, A):
        """Add the k x k block A, or A times the identity for an int A."""
        j0 = pos(src_t) * k
        i0 = dst_i * k
        for s in range(k):
            col = cols[j0 + s]
            for r in range(k):
                v = (A if r == s else 0) if isinstance(A, int) else A[r][s]
                if v:
                    col[i0 + r] = col.get(i0 + r, 0) + v

    for di, key in enumerate(product(gm.elements, repeat=n + 1)):
        if n == 0:
            (g,) = key
            add_block(di, (), act[g])
            add_block(di, (), -1)
        elif n == 1:
            g, h = key
            add_block(di, (h,), act[g])
            add_block(di, (g * h,), -1)
            add_block(di, (g,), 1)
        else:
            g, h, kk = key
            add_block(di, (h, kk), act[g])
            add_block(di, (g * h, kk), -1)
            add_block(di, (g, h * kk), 1)
            add_block(di, (g, h), -1)
    return [{i: v for i, v in col.items() if v} for col in cols]


def normalized_part(gm: FiniteGModule, n: int, cols):
    """The rows and columns of the full d^n, as boundary_matrix_by_products
    gives it, at the tuples that hold no identity element, re-indexed in
    itertools.product order among those tuples: the normalized d^n, found
    by Perm comparison with the identity, not by its index."""
    k = len(gm.module.cyclic_orders)
    one = Perm.identity(gm.group.n)

    def coords(m):
        return [gm.position(key) * k + s
                for key in product(gm.elements, repeat=m) if one not in key
                for s in range(k)]
    rows = {i: r for r, i in enumerate(coords(n + 1))}
    return [{rows[i]: v for i, v in cols[j].items() if i in rows}
            for j in coords(n)]


def coboundary_by_table(c: Cochain) -> Cochain:
    """The differential written out on tables, as an oracle for the
    library's matrix: d0(u)(g) = g.u - u; d1(s)(g,h) = g.s(h) - s(gh) + s(g);
    d2(s)(g,h,k) = g.s(h,k) - s(gh,k) + s(g,hk) - s(g,h)."""
    gm = c.gm
    M = gm.module
    if c.arity == 0:
        u = c()
        return Cochain(gm, 1, {(g,): M.add(gm.act(g, u), M.neg(u))
                               for g in gm.elements})
    if c.arity == 1:
        out = {}
        for g in gm.elements:
            for h in gm.elements:
                v = gm.act(g, c(h))
                v = M.add(v, M.neg(c(g * h)))
                v = M.add(v, c(g))
                out[(g, h)] = v
        return Cochain(gm, 2, out)
    if c.arity == 2:
        out = {}
        for g in gm.elements:
            for h in gm.elements:
                for k in gm.elements:
                    v = gm.act(g, c(h, k))
                    v = M.add(v, M.neg(c(g * h, k)))
                    v = M.add(v, c(g, h * k))
                    v = M.add(v, M.neg(c(g, h)))
                    out[(g, h, k)] = v
        return Cochain(gm, 3, out)
    raise GroupCohError("coboundary defined for arity <= 2")


def cochain_to_json(c: Cochain) -> str:
    tab = {}
    for key in product(c.gm.elements, repeat=c.arity):
        tab["|".join(p.to_cycles() for p in key)] = list(c(*key))
    return json.dumps({"arity": c.arity, "table": tab}, sort_keys=True)


def cochain_from_json(gm: FiniteGModule, text: str) -> Cochain:
    data = json.loads(text)
    n = gm.group.n
    table = {}
    for key, val in data["table"].items():
        perms = tuple(Perm.from_cycles(p, n) for p in key.split("|")) \
            if key else ()
        table[perms] = tuple(val)
    return Cochain(gm, data["arity"], table)


# ---------------------------------------------------------------------------
# local symbols on etale algebras and localization of Kummer data
# ---------------------------------------------------------------------------

def residue_field(p: int, f: int) -> tuple:
    """The modulus of F_{p^f}: the lexicographically smallest monic
    irreducible of degree f, or (0, 1) for F_p itself."""
    if f == 1:
        return (0, 1)
    for tail in product(range(p), repeat=f):
        g = list(tail) + [1]
        if modp.gf_is_squarefree(g, p) and \
                modp.factor_degrees(modp._distinct_degree(g, p)) == [f]:
            return tuple(g)
    raise LocalSymError("no irreducible found")


def residue_cube_log(p: int, modulus: tuple, r: list) -> int:
    """Exponent k with r^((q-1)/3) = zeta3^k in F_p[s]/(modulus)."""
    q = p ** (len(modulus) - 1)
    val = modp.gf_pow_mod(r, (q - 1) // 3, list(modulus), p)
    return _mu_logs(p, modulus, 3)[tuple(val)]


def cube_class(a, F: LocalFieldDesc) -> LocalClass:
    """Cube class of a nonzero rational in the tame field F (via the
    residue character); f = e = 1 is Q_p itself."""
    p = F.p
    if p == 3:
        raise UnsupportedLocal("wild: cube classes at p = 3")
    a = Fraction(a)
    v = (F.e * vp(a, p)) % 3
    if (F.q - 1) % 3:
        return LocalClass(3, Place(p), v, 0, Fraction(p) ** v)
    k = residue_cube_log(p, residue_field(p, F.f), [unit_part_mod(a, p)])
    return LocalClass(3, Place(p), v, k, a)


def hilbert_etale(fields, a_parts, b_parts, m: int) -> SymbolValue:
    """Product of per-factor symbols over an etale algebra given as a list
    of LocalFieldDesc; rational entries are converted factor-wise."""
    if not (len(fields) == len(a_parts) == len(b_parts)):
        raise LocalSymError("length mismatch")
    out = SymbolValue(m, 0)
    for F, x, y in zip(fields, a_parts, b_parts):
        out = out * tame_symbol(F, x, y, m)
    return out


def _to_valued(F: LocalFieldDesc, x):
    """(valuation, unit residue) of a rational, or pass (v, residue)."""
    if isinstance(x, tuple) and len(x) == 2 and not isinstance(x, Fraction):
        v, r = x
        r = r if isinstance(r, (list, tuple)) else [r]
        return int(v), modp.trim([c % F.p for c in list(r)[:F.f]])
    x = Fraction(x)
    return F.e * vp(x, F.p), [unit_part_mod(x, F.p)]


def tame_symbol(F: LocalFieldDesc, a, b, m: int) -> SymbolValue:
    """Tame symbol on F for m in {2, 3}; elements are rationals or pairs
    (valuation, unit-residue coefficients)."""
    if m not in (2, 3):
        raise UnsupportedLocal("m must be 2 or 3")
    if F.p == 2 and m == 2:
        # wild for the residue formula; only rational entries via Q_2
        if isinstance(a, tuple) or isinstance(b, tuple):
            raise UnsupportedLocal("p = 2 beyond Q_2 not supported")
        if F.f != 1 or F.e != 1:
            raise UnsupportedLocal("p = 2 beyond Q_2 not supported")
        return hilbert2(a, b, Place(2))
    if m == 3 and F.p == 3:
        raise UnsupportedLocal("wild: m = 3 at p = 3")
    if (F.q - 1) % m:
        raise UnsupportedLocal(f"mu_{m} not in the residue field")
    return tame_symbol_residue(F.p, residue_field(F.p, F.f),
                               *_to_valued(F, a), *_to_valued(F, b), m)


def localize(datum, p: int):
    """Reduce a global Kummer datum to local class data at p."""
    place = Place(p)
    if isinstance(datum, (int, Fraction)):
        return square_class(Fraction(datum), place)
    if isinstance(datum, CoclassC3):
        dp = datum.delta.d
        if dp == 1:
            u = datum.delta.x + datum.delta.y
            return cube_class(u, LocalFieldDesc(p))
        if is_square_padic(Fraction(dp), p):
            u = _embed_split(datum.delta, p, 1)
            return cube_class(u, LocalFieldDesc(p))
        # field case: sigma is a norm-one unit; class = residue character
        ctx = _TameField.quadratic(p, dp)
        v, r = ctx.valued((datum.delta.x, datum.delta.y))
        if (p ** ctx.f - 1) % 3:
            return LocalClass(3, place, v % 3, 0, Fraction(0))
        k = residue_cube_log(p, ctx.modulus, r)
        return LocalClass(3, place, v % 3, k, Fraction(0))
    if isinstance(datum, CoclassV4):
        if any(f.degree != 1 for f in datum.R.factors):
            raise UnsupportedLocal("only split R supported")
        return tuple(square_class(d[0], place) for d in datum.delta)
    raise UnsupportedLocal("unsupported datum type")


# ---------------------------------------------------------------------------
# radical algebras and Tate-dual twists
# ---------------------------------------------------------------------------

def kummer_radical(n: int, a) -> EtaleAlgebra:
    """The etale algebra Q[x]/(x^n - a) for n in {2, 3, 4}, factored."""
    if n not in (2, 3, 4):
        raise KummerError("n must be 2, 3, or 4")
    a = Fraction(a)
    if a == 0:
        raise KummerError("a must be nonzero")
    coeffs = [-a] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    return EtaleAlgebra.from_poly(RationalPoly(coeffs))


def tate_dual_twist(D: SquareClass) -> SquareClass:
    """Twist class of the Tate dual of an order-3 module: D -> -3D."""
    if isinstance(D, int):
        D = SquareClass.of(D)
    return SquareClass(squarefree_part(-3 * D.rep))


def mu_power_dual(k: int, p: int) -> int:
    """Dual twist exponent for M_k over Q_p-style coefficients:
    k -> (1 - k) mod (p - 1)."""
    if p < 3:
        raise KummerError("need an odd prime")
    return (1 - k) % (p - 1)


# ---------------------------------------------------------------------------
# factorization and resultants without the integer shortcuts
# ---------------------------------------------------------------------------

def factor_monic_int_by_zassenhaus(f_int):
    """`factor._factor_monic_int` with no root step and no degree pruning:
    every input of degree >= 2 goes through the prime scan, the Hensel tree
    and subset recombination."""
    n = len(f_int) - 1
    if n == 1:
        return [f_int]
    best = None
    for usable, (p, pieces) in enumerate(modp.reductions(f_int), 1):
        count = len(modp.factor_degrees(pieces))
        if best is None or count < best[0]:
            best = (count, p, pieces)
        if count <= 2 or usable == factor._MAX_PRIMES:
            break
    if best is None:
        raise ExactPolyError("no usable prime found")
    count, p, pieces = best
    if count == 1:
        return [f_int]
    fac = modp.gf_factor_squarefree(pieces, p)
    norm = math.isqrt(sum(c * c for c in f_int)) + 1
    bound = 2 * (2 ** n) * norm + 1
    lifted = factor._hensel_tree(f_int, fac, p, bound)
    m = p
    while m < bound:
        m = m * m
    result, rest = [], f_int
    idx = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(idx):
        for S in combinations(idx, s):
            cand = [1]
            for i in S:
                cand = modp.gf_mul(cand, lifted[i], m)
            cand = [factor._symmetric(c, m) for c in cand]
            q, r = factor._int_divmod_monic(rest, cand)
            if r == []:
                result.append(cand)
                rest = q
                idx = [i for i in idx if i not in S]
                break
        else:
            s += 1
    if len(rest) > 1:
        result.append(rest)
    return sorted(result, key=lambda a: (len(a), a))


def resultant_by_euclid(f: RationalPoly, g: RationalPoly) -> Fraction:
    """Resultant of two nonzero polynomials by the Euclidean PRS over Q, one
    Fraction division per step."""
    if f.is_zero() or g.is_zero():
        raise ExactPolyError("resultant of zero polynomial")
    if f.degree == 0:
        return f.lc ** g.degree
    if g.degree == 0:
        return g.lc ** f.degree
    r = Fraction(1)
    a, b = f, g
    while b.degree > 0:
        rem = a % b
        if rem.is_zero():
            return Fraction(0)
        r *= Fraction(-1) ** (a.degree * b.degree) * b.lc ** (a.degree - rem.degree)
        a, b = b, rem
    return r * b.lc ** a.degree


# ---------------------------------------------------------------------------
# interpolation, Trager norms and characteristic polynomials by resultants,
# and the C4/D4 split by a norm
# ---------------------------------------------------------------------------

def interpolate(xs, ys) -> RationalPoly:
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]),
    xs distinct: Newton divided differences, then the Newton form expanded
    by Horner's rule, O(n^2) field operations."""
    c = [Fraction(y) for y in ys]
    n = len(c)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    out = []
    for k in range(n - 1, -1, -1):
        # out <- out * (x - xs[k]) + c[k]
        shifted = [Fraction(0)] + out
        for i, a in enumerate(out):
            shifted[i] -= xs[k] * a
        shifted[0] += c[k]
        out = shifted
    return RationalPoly(out)


def trager_norm_by_resultants(f: RationalPoly, g: RationalPoly, lam) -> RationalPoly:
    """Res_y(f(y), g(x - lam*y)) by interpolation through deg f * deg g + 1
    resultants Res_y(f(y), g(x0 - lam*y)) at x0 = 0, 1, -1, 2, ...; lam != 0,
    else every x0 would be skipped while g(x0) has degree 0 in y."""
    lam = Fraction(lam)
    if lam == 0 and g.degree > 0:
        raise ValueError("lam = 0 leaves g(x0 - lam*y) constant in y")
    xs, ys = [], []
    x0 = 0
    while len(xs) < f.degree * g.degree + 1:
        shifted = g.compose(RationalPoly([Fraction(x0), -lam]))
        if shifted.degree == g.degree:
            xs.append(Fraction(x0))
            ys.append(resultant(f, shifted))
        x0 = -x0 + (0 if x0 > 0 else 1)  # 0, 1, -1, 2, -2, ...
    return interpolate(xs, ys)


def charpoly_by_resultants(r: RationalPoly, f: RationalPoly) -> RationalPoly:
    """prod (x - r(alpha)) over the roots alpha of f, by interpolation through
    the deg f + 1 values Res_y(f(y), x0 - r(y)) / lc(f)^deg(x0 - r) at
    x0 = 0, 1, -1, 2, ...; the value is 0 where x0 - r is the zero
    polynomial."""
    xs, ys = [], []
    for k in range(f.degree + 1):
        x0 = Fraction((k + 1) // 2 * (1 if k % 2 else -1))
        g = RationalPoly([x0]) - r
        xs.append(x0)
        ys.append(Fraction(0) if g.is_zero() else resultant(f, g) / f.lc ** g.degree)
    return interpolate(xs, ys)


def trager_roots_by_factoring(g: RationalPoly, f: RationalPoly):
    """`extension._trager_roots` by factoring each whole norm: each
    irreducible factor h of the squarefree g whose degree divides deg f, with
    an iterator over the (lam, q), q an irreducible factor of degree deg f
    of the squarefree norm N_lam(h) as Zassenhaus finds them, one per root of
    h in Q[y]/(f)."""
    if not is_irreducible(f):
        raise ExactPolyError("extension polynomial must be irreducible")
    if not is_squarefree(g):
        raise ExactPolyError("g must be squarefree")
    for h, _ in factor_rationals(g):
        if f.degree % h.degree == 0:
            lam, qs = _norm_factors(f, h)
            yield h, iter([(lam, q) for q in qs if q.degree == f.degree])


def _k_inv(a: RationalPoly, f: RationalPoly) -> RationalPoly:
    """Inverse of a in Q[y]/(f), f irreducible, a nonzero mod f, by the
    extended Euclid over Q."""
    r0, r1 = f, a % f
    s0, s1 = RationalPoly([]), RationalPoly([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    return s0 * (1 / r0.coeffs[0]) % f


def _kx_trim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _kx_rem(a, b, f):
    """a mod b in K[x], K = Q[y]/(f); coefficient lists ascending, b
    trimmed and nonzero."""
    a, inv = _kx_trim(list(a)), _k_inv(b[-1], f)
    while len(a) >= len(b):
        c, shift = a[-1] * inv % f, len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % f
        _kx_trim(a)
    return a


def roots_by_factoring(g: RationalPoly, f: RationalPoly):
    """`extension.roots_in_extension` by a Euclid over K = Q[y]/(f) in
    Fraction arithmetic on the factors of fully factored norms: for each
    (lam, q) of `trager_roots_by_factoring`, the gcd of h(x) and
    q(x + lam*y) over K is x - r for one root r of h in K."""
    roots = []
    for h, found in trager_roots_by_factoring(g, f):
        if h.degree == 1:
            roots.append(RationalPoly([-h.coeffs[0] / h.coeffs[1]]))
            continue
        for lam, q in found:
            # q(x + lam*y) by Horner in K[x]
            shift, qk = [lam * RationalPoly([0, 1]) % f, RationalPoly([1])], []
            for c in reversed(q.coeffs):
                prod = [RationalPoly([])] * (len(qk) + 1)
                for i, a in enumerate(qk):
                    for j, b in enumerate(shift):
                        prod[i + j] = prod[i + j] + a * b % f
                prod[0] = prod[0] + c
                qk = _kx_trim(prod)
            a, b = [RationalPoly([c]) for c in h.coeffs], qk
            while b:
                a, b = b, _kx_rem(a, b, f)
            if len(a) == 2:
                roots.append(-(a[0] * _k_inv(a[1], f)) % f)
    return sorted(roots, key=lambda r: r.coeffs)


def transitive_tag_by_norm(f: RationalPoly) -> str:
    """Galois tag of an irreducible polynomial of degree <= 4, deciding C4
    against D4 by whether sqrt(disc) lies in the quartic field, and square
    discriminants by their squarefree part."""
    n = f.degree
    if n < 3:
        return f"C{n}"
    disc_class = squarefree_part(discriminant(f))
    if n == 3:
        return "C3" if disc_class == 1 else "S3"
    degs = sorted(h.degree for h, _ in factor_rationals(cubic_resolvent_poly(f)))
    if degs == [3]:
        return "A4" if disc_class == 1 else "S4"
    if degs == [1, 1, 1]:
        return "V4"
    quad = RationalPoly([-disc_class, 0, 1])
    return "C4" if has_root_in_extension(quad, f) else "D4"


# ---------------------------------------------------------------------------
# complex root balls
# ---------------------------------------------------------------------------

def balls_overlap(a: ComplexBall, b: ComplexBall) -> bool:
    return abs(a.mid - b.mid) < a.radius + b.radius


def ball_contains(a: ComplexBall, b: ComplexBall) -> bool:
    return abs(a.mid - b.mid) + b.radius <= a.radius


def c4_model_in_quadratic_field(p, q, r, y1):
    """(a, c) of the C4 model x^4 - tr(w) x^2 + N(w) at the rational root
    y1 of the resolvent of x^4 + p x^2 + q x + r, with w computed in
    E = Q(sqrt d_E): the quartic is (x^2 + ux + v)(x^2 - ux + v') over E,
    u = 0 and v, v' the roots of z^2 - y1 z + r when y1 = p, else u^2 =
    y1 - p and v = (y1 - q/u)/2; w = u^2 - 4v, c = tr(w)/4 and
    a = c^2 - N(w)/2.  The oracle for kummerh1._c4_model_at."""
    if y1 == p:
        dE = squarefree_part(y1 * y1 - 4 * r)
        mE = _frac_sqrt((y1 * y1 - 4 * r) / dE)
        v = QuadElem.of(dE, y1 / 2, mE / 2)
        u = QuadElem.of(dE, 0, 0)
    else:
        dE = squarefree_part(y1 - p)
        mE = _frac_sqrt((y1 - p) / dE)
        u = QuadElem.of(dE, 0, mE)
        v = (QuadElem.of(dE, y1, 0) - u * (q / (y1 - p))) * Fraction(1, 2)
    w = u * u - 4 * v
    c = w.trace() / 4
    return c * c - w.norm() / 2, c
