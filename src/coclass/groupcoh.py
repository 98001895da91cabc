"""Group cohomology of finite modules in degrees 0-2: cochains,
coboundaries, Z/B/H by sparse elimination modulo the cyclic orders of M,
restriction/corestriction, the transfer identity check, cup products, and
the crossed-homomorphism <-> holomorph-homomorphism dictionary.
"""

from __future__ import annotations

import math
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import cycle, product
from operator import add, neg, sub
from typing import Callable, Dict

from . import InternalError, UnsupportedSize
from .permstruct import (
    FiniteAbelian,
    Perm,
    PermGroup,
    _small_generating_set,
    extend_hom,
    hom_search,
    orbits,
)

GROUP_CAP = 24
MODULE_CAP = 16


class GroupCohError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form
# ---------------------------------------------------------------------------

def _identity_mat(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _unit_to_gcd(x, N):
    """A unit u modulo N with u * x = gcd(x, N) modulo N, for x not 0
    modulo N."""
    g = math.gcd(x, N)
    u = pow(x // g, -1, N // g)
    while math.gcd(u, N) != 1:
        u += N // g
    return u


def smith_normal_form(M, N):
    """Smith normal form over Z/N: (S, U, Uinv, V) with S = U*M*V diagonal
    modulo N, U and V invertible modulo N, Uinv the inverse of U, and
    diagonal entries dividing N and each other, 0 standing for N.

    Every entry stays reduced modulo N.  The pivot is scaled by a unit to
    gcd(pivot, N) and merged by an extended gcd with each entry it does not
    divide, so it only shrinks, through divisors of N.
    """
    S = [[x % N for x in row] for row in M]
    rows = len(S)
    cols = len(S[0]) if rows else 0
    U, Uinv = _identity_mat(rows), _identity_mat(rows)
    V = _identity_mat(cols)

    def mix_rows(A, i, j, a, b, c, d):
        """(A[i], A[j]) <- (a A[i] + b A[j], c A[i] + d A[j])."""
        Ai, Aj = A[i], A[j]
        A[i] = [(a * x + b * y) % N for x, y in zip(Ai, Aj)]
        A[j] = [(c * x + d * y) % N for x, y in zip(Ai, Aj)]

    def mix_cols(A, i, j, a, b, c, d):
        """The same on columns i and j of A."""
        for r in A:
            x, y = r[i], r[j]
            r[i], r[j] = (a * x + b * y) % N, (c * x + d * y) % N

    # a*d - b*c = e is +-1 in every call, so the inverse is e*[[d, -b], [-c, a]]
    def row_op(i, j, a, b, c, d):
        e = a * d - b * c
        mix_rows(S, i, j, a, b, c, d)
        mix_rows(U, i, j, a, b, c, d)
        mix_cols(Uinv, i, j, e * d, -e * c, -e * b, e * a)

    def col_op(i, j, a, b, c, d):
        mix_cols(S, i, j, a, b, c, d)
        mix_cols(V, i, j, a, b, c, d)

    for t in range(min(rows, cols)):
        # pivot: an entry generating the largest ideal; G generates the
        # ideal of all entries left
        best, G = None, N
        for i in range(t, rows):
            for j in range(t, cols):
                if S[i][j]:
                    g = math.gcd(S[i][j], N)
                    G = math.gcd(G, g)
                    if best is None or g < best[0]:
                        best = (g, i, j)
        if best is None:
            break
        _, i0, j0 = best
        if i0 != t:
            row_op(t, i0, 0, 1, 1, 0)
        if j0 != t:
            col_op(t, j0, 0, 1, 1, 0)
        u = _unit_to_gcd(S[t][t], N)
        v = pow(u, -1, N)
        S[t] = [u * x % N for x in S[t]]
        U[t] = [u * x % N for x in U[t]]
        for r in Uinv:
            r[t] = v * r[t] % N
        while True:
            for i in range(t + 1, rows):
                y, p = S[i][t], S[t][t]
                if y % p:
                    g, a, b = _xgcd(p, y)
                    row_op(t, i, a, b, y // g, -(p // g))
                elif y:
                    row_op(i, t, 1, -(y // p), 0, 1)
            for j in range(t + 1, cols):
                y, p = S[t][j], S[t][t]
                if y % p:
                    g, a, b = _xgcd(p, y)
                    col_op(t, j, a, b, y // g, -(p // g))
                elif y:
                    col_op(j, t, 1, -(y // p), 0, 1)
            if any(S[i][t] for i in range(t + 1, rows)):
                continue
            # divisibility chain: unless the pivot generates G, pull an
            # entry it does not divide into row t and clear again
            p = S[t][t]
            if p == G:
                break
            bad = next(i for i in range(t + 1, rows)
                       if any(S[i][j] % p for j in range(t + 1, cols)))
            row_op(t, bad, 1, 1, 0, 1)
    return S, U, Uinv, V


def _diag(S):
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _axpy(y, c, x, mods):
    """y += c * x in place for sparse vectors (dicts index -> nonzero
    entry), entry i reduced modulo mods[i]."""
    get = y.get
    for i, v in x.items():
        t = (get(i, 0) + c * v) % mods[i]
        if t:
            y[i] = t
        else:
            y.pop(i, None)


def _combine(c, u, d, v, mods):
    """The sparse vector c*u + d*v, reduced as in _axpy."""
    out = {}
    for w, x in ((c, u), (d, v)):
        if w:
            _axpy(out, w, x, mods)
    return out


def _echelon(pool, row_mods, col_mods=()):
    """Echelon form of the columns (image, source) in pool, both parts
    sparse dicts; image entry r is taken modulo row_mods[r] and source entry
    j modulo col_mods[j], which may be left out when every source is empty.

    Returns (pivots, kernel): pivots maps a row r to the one column whose
    image leads at r, and kernel lists the nonzero sources whose image
    became zero.  A column leads at its last nonzero row; eliminating from
    the bottom keeps the bar-resolution coboundaries sparse, with about a
    fifth of the work of eliminating from the top when |G| is 12 to 24.
    Two columns leading at the same row are merged by an extended gcd.
    A column leading with g modulo m_r is scaled to lead with gcd(g, m_r),
    and its multiple by m_r / gcd(g, m_r) from before the scaling, whose
    row r vanishes, goes back into the pool.  That is the Howell step of
    Storjohann and Mulders ("Fast algorithms for linear algebra modulo N",
    ESA 1998): afterwards any image the columns span that vanishes after
    row r has its row r entry divisible by the pivot's, so no torsion
    element is lost and division by the pivots finds coordinates.
    """

    def lin(c, u, d=0, v=({}, {})):
        """The column c*u + d*v."""
        return (_combine(c, u[0], d, v[0], row_mods),
                _combine(c, u[1], d, v[1], col_mods))

    pool = pool[::-1]
    pivots = {}
    kernel = []
    while pool:
        col = lin(1, pool.pop())
        rows = [-i for i in col[0]]  # max-heap of the image's rows
        heapify(rows)
        while rows:
            r = -heappop(rows)
            x = col[0].get(r)
            if not x:
                continue
            m = row_mods[r]
            piv = pivots.get(r)
            if piv is None:
                g, u, _ = _xgcd(x, m)
                pool.append(lin(m // g, col))
                if u != 1:
                    col = lin(u, col)
                pivots[r] = col
                break
            for i in piv[0]:  # rows below r that the pivot brings in
                if i not in col[0]:
                    heappush(rows, -i)
            p = piv[0][r]
            if x % p == 0:
                _axpy(col[0], -(x // p), piv[0], row_mods)
                _axpy(col[1], -(x // p), piv[1], col_mods)
                continue
            g, s, t = _xgcd(p, x)
            piv, col = lin(s, piv, t, col), lin(x // g, piv, -p // g, col)
            pivots[r] = piv
            pool.append(lin(m // g, piv))
        else:
            if col[1]:
                kernel.append(col[1])
    return pivots, kernel


def kernel_basis(W, row_mods, col_mods):
    """Kernel of the integer matrix W modulo its row moduli, by sparse
    column elimination.

    W is a list of sparse columns (dicts row -> nonzero entry).  Row r is an
    equation modulo row_mods[r], and coordinate j is reduced modulo
    col_mods[j], where W must send col_mods[j] * e_j to zero modulo the row
    moduli.  The result, sparse vectors (dicts coordinate -> nonzero entry),
    together with the vectors col_mods[j] * e_j generates the lattice of
    integer x with W x = 0 modulo the row moduli.
    """
    _, kernel = _echelon([(col, {j: 1}) for j, col in enumerate(W)],
                         row_mods, col_mods)
    return kernel


def lattice_basis(gens, modulus):
    """Basis of the lattice spanned by the given column vectors (each a list
    of length a) and by modulus * Z^a: a columns in echelon form.  Entries
    are reduced modulo the modulus as the echelon form is built, so none
    exceeds it."""
    if not gens:
        return []
    a = len(gens[0])
    pivots, _ = _echelon([({i: x for i, x in enumerate(g) if x}, {})
                          for g in gens], [modulus] * a)
    cols = [pivots[r][0] if r in pivots else {r: modulus} for r in range(a)]
    return [[c.get(i, 0) for i in range(a)] for c in cols]


# ---------------------------------------------------------------------------
# G-modules and cochains
# ---------------------------------------------------------------------------

def _check_caps(group: PermGroup, module: FiniteAbelian):
    """Raise UnsupportedSize past the caps, enumerating at most
    GROUP_CAP + 1 elements of the group."""
    if module.order > MODULE_CAP or not group.order_at_most(GROUP_CAP):
        raise UnsupportedSize("group/module size exceeds desk caps")


class FiniteGModule:
    """A finite abelian module with an action of a finite (permutation)
    group, the action given as a dict Perm -> automorphism dict."""

    def __init__(self, group: PermGroup, module: FiniteAbelian, action: Dict):
        _check_caps(group, module)
        self.group = group
        self.module = module
        self.action = dict(action)
        els = sorted(group.elements)
        ident = Perm.identity(group.n)
        if ident not in self.action:
            self.action[ident] = {m: m for m in module.elements}
        for g in els:
            if g not in self.action:
                raise GroupCohError(f"action missing for {g.to_cycles()}")
        # full table verification that the action is a homomorphism
        for g in els:
            for h in els:
                gh = self.action[g * h]
                for m in module.elements:
                    if gh[m] != self.action[g][self.action[h][m]]:
                        raise GroupCohError("action is not a homomorphism")
        self.elements = els
        self.index = {g: i for i, g in enumerate(els)}

    @staticmethod
    def trivial(group: PermGroup, module: FiniteAbelian) -> "FiniteGModule":
        _check_caps(group, module)
        ident = {m: m for m in module.elements}
        return FiniteGModule(group, module,
                             {g: ident for g in group.elements})

    @staticmethod
    def from_generator_action(group: PermGroup, module: FiniteAbelian,
                              gen_action: Dict) -> "FiniteGModule":
        """Extend an action given on generators to the whole group."""
        _check_caps(group, module)
        els = module.elements
        action = extend_hom(group.n, gen_action,
                            lambda a, b: {m: a[b[m]] for m in els},
                            {m: m for m in els})
        if action is None:
            raise GroupCohError("generator action inconsistent")
        return FiniteGModule(group, module, action)

    def act(self, g: Perm, m):
        return self.action[g][m]

    def position(self, key) -> int:
        """The place of the tuple key among the tuples of sorted G of its
        length, in itertools.product order."""
        i = 0
        for g in key:
            i = i * len(self.elements) + self.index[g]
        return i

    def action_matrix(self, g: Perm):
        """Integer matrix of the action of g w.r.t. the cyclic coordinates."""
        M = self.module
        k = len(M.cyclic_orders)
        cols = []
        for i in range(k):
            e = tuple(1 if j == i else 0 for j in range(k))
            cols.append(self.act(g, e))
        return [[cols[j][i] for j in range(k)] for i in range(k)]


class Cochain:
    """An n-cochain: a total map from n-tuples of group elements to module
    elements.  Arity 0 uses the single key ().

    It is held as its coordinate vector: the values on the n-tuples of
    sorted G in itertools.product order, in the cyclic coordinates, each
    entry reduced modulo the order of its cyclic factor."""

    __slots__ = ("gm", "arity", "vector")

    def __init__(self, gm: FiniteGModule, arity: int, table: Dict):
        if arity not in (0, 1, 2, 3):
            raise GroupCohError("arity must be 0..3")
        vec = []
        for key in product(gm.elements, repeat=arity):
            if key not in table:
                raise GroupCohError(f"cochain table missing {key}")
            vec.extend(table[key])
        self._set(gm, arity, vec)

    def _set(self, gm, arity, vec):
        self.gm = gm
        self.arity = arity
        self.vector = tuple(x % d for x, d in
                            zip(vec, cycle(gm.module.cyclic_orders)))
        return self

    @staticmethod
    def from_vector(gm: FiniteGModule, arity: int, vec) -> "Cochain":
        """The cochain with coordinate vector vec, taken modulo the orders."""
        return Cochain.__new__(Cochain)._set(gm, arity, vec)

    @staticmethod
    def zero(gm: FiniteGModule, arity: int) -> "Cochain":
        size = len(gm.elements) ** arity * len(gm.module.cyclic_orders)
        return Cochain.from_vector(gm, arity, [0] * size)

    def __call__(self, *args):
        if len(args) != self.arity:
            raise GroupCohError(f"a {self.arity}-cochain takes "
                                f"{self.arity} arguments")
        k = len(self.gm.module.cyclic_orders)
        i = self.gm.position(args) * k
        return self.vector[i:i + k]

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.arity == other.arity
                and self.vector == other.vector
                and (self.gm is other.gm
                     or self.gm.elements == other.gm.elements))

    def __hash__(self):
        return hash((self.arity, self.vector))

    def _map(self, f, *others) -> "Cochain":
        """The cochain whose entries are f of the entries of self and others."""
        return Cochain.from_vector(self.gm, self.arity, map(
            f, self.vector, *(c.vector for c in others)))

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._map(add, other)

    def __neg__(self) -> "Cochain":
        return self._map(neg)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._map(sub, other)

    def smul(self, c: int) -> "Cochain":
        return self._map(lambda x: c * x)

    def is_zero(self) -> bool:
        return not any(self.vector)


def coboundary(c: Cochain) -> Cochain:
    """The differential d^n of the bar resolution applied to c."""
    out = [0] * (len(c.vector) * len(c.gm.elements))
    for x, col in zip(c.vector, _boundary_matrix(c.gm, c.arity)):
        if x:
            for i, v in col.items():
                out[i] += v * x
    return Cochain.from_vector(c.gm, c.arity + 1, out)


# ---------------------------------------------------------------------------
# cohomology by sparse elimination modulo the orders of M
# ---------------------------------------------------------------------------

def _boundary_matrix(gm: FiniteGModule, n: int):
    """The coboundary C^n -> C^{n+1} as an integer matrix in the cyclic
    coordinates, given by its |G|^n * k columns (one per C^n coordinate),
    each a dict from C^{n+1} coordinate (row) to nonzero entry:
    d0(u)(g) = g.u - u; d1(s)(g,h) = g.s(h) - s(gh) + s(g);
    d2(s)(g,h,k) = g.s(h,k) - s(gh,k) + s(g,hk) - s(g,h)."""
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


class CoclassSet:
    """H^n(G, M): invariant factors, representatives, and coset reduction.

    Cochains are vectors in the cyclic coordinates, each entry modulo the
    order of its cyclic factor.  The cocycles Z^n, the kernel of the
    coboundary modulo those orders, are kept in Howell form: basis cocycles
    h_1..h_z with distinct leading coordinates, in which every cocycle has
    integer coordinates found by division.  H^n is Z^z modulo the relations
    among the h_i and the coordinates of the coboundaries; Smith normal
    form of that relation lattice gives the invariant factors s_i and a
    basis E of Z^z in which the relations are spanned by the s_i * E_i.
    """

    def __init__(self, gm: FiniteGModule, degree: int):
        if degree not in (0, 1, 2):
            raise GroupCohError("degree must be 0, 1, or 2")
        self.gm = gm
        self.degree = degree
        M = gm.module
        k = len(M.cyclic_orders)
        a = len(gm.elements) ** degree * k
        mods = [M.cyclic_orders[i % k] for i in range(a)]
        self._a = a
        self._mods = mods
        # Z^n: cochains x with d^n(x) = 0 modulo the target moduli
        zgens = kernel_basis(_boundary_matrix(gm, degree),
                             mods * len(gm.elements), mods)
        howell, _ = _echelon([(v, {}) for v in zgens], mods)
        self._howell = {r: h for r, (h, _) in howell.items()}
        self._lead = sorted(howell, reverse=True)
        z = len(self._lead)
        # relations: (m_r / g_r) * h_r lies in the span of the later h's
        rels = []
        for i, r in enumerate(self._lead):
            q = mods[r] // self._howell[r][r]
            rel = self._coords({j: q * x for j, x in self._howell[r].items()})
            if rel is None:
                raise InternalError("cocycle basis not in Howell form "
                                    "(internal error)")
            rel[i] -= q
            rels.append(rel)
        # B^n: the image of d^{n-1}
        if degree > 0:
            for col in _boundary_matrix(gm, degree - 1):
                y = self._coords(col)
                if y is None:
                    raise GroupCohError("coboundary outside cocycle lattice")
                rels.append(y)
        # M has exponent e, so e * Z^z lies among the relations
        basis = lattice_basis(rels, M.exponent)
        S, self._U, Uinv, _ = smith_normal_form(
            [[col[i] for col in basis] for i in range(z)], M.exponent)
        d = [s or M.exponent for s in _diag(S)]
        self.invariants = [1] * (a - z) + d
        self._live = [(i, s, self._vector([row[i] for row in Uinv]))
                      for i, s in enumerate(d) if s > 1]
        self.order = math.prod(s for _, s, _ in self._live)

    @cached_property
    def representatives(self):
        """One cocycle per class, listed on first access: there are
        self.order of them."""
        return [self._combination(zip(combo, (e for _, _, e in self._live)))
                for combo in product(*(range(s) for _, s, _ in self._live))]

    def _coords(self, v):
        """Integer coordinates of the integer cochain vector v (a sparse
        dict) in the Howell basis of Z^n, or None if v is not a cocycle."""
        v = _combine(1, v, 0, None, self._mods)
        y = [0] * len(self._lead)
        for i, r in enumerate(self._lead):
            x = v.get(r, 0)
            if x:
                h = self._howell[r]
                if x % h[r]:
                    return None
                y[i] = x // h[r]
                _axpy(v, -y[i], h, self._mods)
        return None if v else y

    def _vector(self, y):
        """The cochain vector with coordinates y in the Howell basis."""
        out = {}
        for c, r in zip(y, self._lead):
            _axpy(out, c, self._howell[r], self._mods)
        return [out.get(j, 0) for j in range(self._a)]

    def _combination(self, terms):
        """The cochain sum of c * e over the pairs (c, e) in terms."""
        vec = [0] * self._a
        for c, e in terms:
            for t, x in enumerate(e):
                vec[t] += c * x
        return Cochain.from_vector(self.gm, self.degree, vec)

    def reduce(self, c: Cochain) -> Cochain:
        """The canonical representative cohomologous to the cocycle c."""
        if c.arity != self.degree or c.gm is not self.gm and \
                (c.gm.elements != self.gm.elements):
            raise GroupCohError("cochain does not match this coclass set")
        y = self._coords({j: x for j, x in enumerate(c.vector) if x})
        if y is None:
            raise GroupCohError("not a cocycle")
        w = [sum(u * x for u, x in zip(row, y)) for row in self._U]
        return self._combination((w[i] % s, e) for i, s, e in self._live)

    def same_class(self, c1: Cochain, c2: Cochain) -> bool:
        return self.reduce(c1) == self.reduce(c2)


def cohomology(gm: FiniteGModule, n: int) -> CoclassSet:
    return CoclassSet(gm, n)


# ---------------------------------------------------------------------------
# crossed homomorphisms and the holomorph dictionary
# ---------------------------------------------------------------------------

def holomorph_homs_over_phi(gm: FiniteGModule):
    """All homomorphisms psi: G -> Hol M lifting phi through Hol M -> Aut M,
    i.e. psi(g) = lambda_{phi(g), t(g)}; returned as the list of coordinate
    vectors of the crossed homomorphisms t (see Cochain).

    psi is fixed by its values on a small generating set S of G, so
    hom_search tries at most |M|^|S| choices of t on S, |S| <= log2 |G|.
    Each psi becomes the vector of t(g) = psi(g)(0), a crossed
    homomorphism, at once.  Hol M acts on the points of M; Aut M is never
    listed."""
    M = gm.module
    pts = M.elements
    n, one = gm.group.n, Perm.identity(len(pts))
    gens = _small_generating_set(gm.group)
    choices = [[M.affine(gm.action[g], t) for t in pts] for g in gens]
    lifts = hom_search(gens, choices,
                       lambda images: extend_hom(n, images, Perm.__mul__, one))
    return [tuple(x for g in gm.elements for x in pts[psi[g](0)])
            for psi in lifts]


def h1_via_hol(gm: FiniteGModule):
    """H^1 via Hol M: homomorphisms over phi modulo M-postconjugation.

    Returns (classes, bijection) where classes is a list of 1-cochains (one
    per M-conjugacy class) and bijection maps each class index to the
    matching representative of cohomology(gm, 1); a GroupCohError is raised
    if the correspondence fails to be bijective."""
    # the vectors are sorted, so the least t (by its values on sorted G)
    # heads each class
    homs = [Cochain.from_vector(gm, 1, t)
            for t in sorted(holomorph_homs_over_phi(gm))]
    # conjugation by translation-by-u sends t to t - d0(u); the cyclic
    # generators u of M generate these translations
    k = len(gm.module.cyclic_orders)
    shifts = [-coboundary(Cochain(gm, 0, {(): [int(i == j) for j in range(k)]}))
              for i in range(k)]
    classes = [orbit[0] for orbit in orbits(homs, shifts, Cochain.__add__)]
    h1 = cohomology(gm, 1)
    bij = {i: h1.reduce(t) for i, t in enumerate(classes)}
    if len(set(bij.values())) != len(classes) or len(classes) != h1.order:
        raise GroupCohError("Hol-dictionary bijection failed")
    return classes, bij


# ---------------------------------------------------------------------------
# restriction and corestriction
# ---------------------------------------------------------------------------

def _check_subgroup(gm: FiniteGModule, H: PermGroup):
    if H.n != gm.group.n or not H.elements <= gm.group.elements:
        raise GroupCohError("H is not a subgroup of G")


def submodule_over(gm: FiniteGModule, H: PermGroup) -> FiniteGModule:
    """The same module viewed over the subgroup H."""
    _check_subgroup(gm, H)
    return FiniteGModule(H, gm.module,
                         {h: gm.action[h] for h in H.elements})


def _coset_reps(gm: FiniteGModule, H: PermGroup):
    """Deterministic (lex-min) left coset representatives of G/H: the
    heads of the orbits of sorted G under right multiplication by H."""
    return [orbit[0] for orbit in orbits(sorted(gm.group.elements),
                                         H.generators, lambda h, g: g * h)]


def res_cor(gm: FiniteGModule, H: PermGroup, c: Cochain, direction: str):
    """Restriction / corestriction in degrees 0 and 1.

    res: H^n(G, M) -> H^n(H, M) by table restriction.
    cor: H^n(H, M) -> H^n(G, M) by the coset-transfer formula.
    """
    _check_subgroup(gm, H)
    M = gm.module
    hm = submodule_over(gm, H)
    if direction == "res":
        if c.arity == 0:
            return Cochain(hm, 0, {(): c()})
        if c.arity == 1:
            return Cochain(hm, 1, {(h,): c(h) for h in hm.elements})
        raise GroupCohError("res implemented in degrees 0 and 1")
    if direction != "cor":
        raise GroupCohError("direction must be 'res' or 'cor'")
    reps = _coset_reps(gm, H)
    if c.arity == 0:
        u = c()
        acc = M.zero()
        for r in reps:
            acc = M.add(acc, gm.act(r, u))
        return Cochain(gm, 0, {(): acc})
    if c.arity == 1:
        # every g r is r' h for exactly one r' in reps and h in H
        split = {r * h: (r, h) for r in reps for h in H.elements}
        out = {}
        for g in gm.elements:
            acc = M.zero()
            for r in reps:
                rp, h = split[g * r]
                acc = M.add(acc, gm.act(rp, c(h)))
            out[(g,)] = acc
        return Cochain(gm, 1, out)
    raise GroupCohError("cor implemented in degrees 0 and 1")


# ---------------------------------------------------------------------------
# Lemma 5.3 transfer identity
# ---------------------------------------------------------------------------

def _check_h_linear(X: FiniteGModule, Y: FiniteGModule, H: PermGroup, f: Dict):
    for m in X.module.elements:
        if f[m] not in Y.module.elements:
            raise GroupCohError("f does not map into Y")
    for m in X.module.elements:
        for m2 in X.module.elements:
            if f[X.module.add(m, m2)] != Y.module.add(f[m], f[m2]):
                raise GroupCohError("f is not additive")
    for h in H.elements:
        for m in X.module.elements:
            if f[X.act(h, m)] != Y.act(h, f[m]):
                raise GroupCohError("f is not H-linear")


def induced_map(X: FiniteGModule, Y: FiniteGModule, H: PermGroup, f: Dict):
    """f~(x) = sum over coset reps r of r.f(r^-1 x); G-linear when f is
    H-linear."""
    reps = _coset_reps(X, H)
    out = {}
    for m in X.module.elements:
        acc = Y.module.zero()
        for r in reps:
            acc = Y.module.add(acc, Y.act(r, f[X.act(r.inverse(), m)]))
        out[m] = acc
    return out


def pushforward(src: FiniteGModule, dst: FiniteGModule, f: Dict, c: Cochain):
    """Apply a module map to the values of a cochain (same group)."""
    return Cochain(dst, c.arity, {k: f[c(*k)] for k in
                                  product(c.gm.elements, repeat=c.arity)})


def lemma53_check(X: FiniteGModule, Y: FiniteGModule, H: PermGroup,
                  f: Dict, n: int):
    """Check Cor(f_* Res sigma) ~ (f~)_* sigma on every class of H^n(G, X).

    Returns (True, None) or (False, offending class representative)."""
    if n not in (0, 1):
        raise GroupCohError("n must be 0 or 1")
    _check_subgroup(X, H)
    _check_h_linear(X, Y, H, f)
    ftilde = induced_map(X, Y, H, f)
    hx = submodule_over(X, H)
    hy = submodule_over(Y, H)
    hn_y = cohomology(Y, n)
    for sigma in cohomology(X, n).representatives:
        res = res_cor(X, H, sigma, "res")
        fres = pushforward(hx, hy, f, res)
        cor = res_cor(Y, H, fres, "cor")
        direct = pushforward(X, Y, ftilde, sigma)
        if not hn_y.same_class(cor, direct):
            return False, sigma
    return True, None


# ---------------------------------------------------------------------------
# cup products
# ---------------------------------------------------------------------------

def cup11(X: FiniteGModule, Y: FiniteGModule, W: FiniteGModule,
          z1: Cochain, z2: Cochain, pairing: Callable):
    """(z1 cup z2)(g, h) = pairing(z1(g), g . z2(h)), a 2-cocycle into W.

    The pairing must be bilinear and G-equivariant; both are verified."""
    if z1.arity != 1 or z2.arity != 1:
        raise GroupCohError("cup11 needs two 1-cochains")
    if not coboundary(z1).is_zero() or not coboundary(z2).is_zero():
        raise GroupCohError("cup11 needs cocycles")
    # verify bilinearity and equivariance on the full table
    for x in X.module.elements:
        for y in Y.module.elements:
            for x2 in X.module.elements:
                if pairing(X.module.add(x, x2), y) != \
                        W.module.add(pairing(x, y), pairing(x2, y)):
                    raise GroupCohError("pairing not additive on the left")
            for y2 in Y.module.elements:
                if pairing(x, Y.module.add(y, y2)) != \
                        W.module.add(pairing(x, y), pairing(x, y2)):
                    raise GroupCohError("pairing not additive on the right")
            for g in W.group.generators:
                if pairing(X.act(g, x), Y.act(g, y)) != \
                        W.act(g, pairing(x, y)):
                    raise GroupCohError("pairing not G-equivariant")
    out = {}
    for g in W.elements:
        for h in W.elements:
            out[(g, h)] = pairing(z1(g), Y.act(g, z2(h)))
    c = Cochain(W, 2, out)
    if not coboundary(c).is_zero():
        raise InternalError("cup product not a cocycle (internal error)")
    return c
