"""Group cohomology of finite modules in degrees 0-2: cochains,
coboundaries, Z/B/H by sparse elimination modulo the cyclic orders of M,
restriction/corestriction, the transfer identity check, cup products, and
the crossed-homomorphism <-> holomorph-homomorphism dictionary.

One bar formula, _bar_sources, has two uses.  coboundary evaluates it on
the full inhomogeneous bar complex, whose n-cochains are all maps G^n -> M,
so a Cochain and its coboundary keep their full-tuple tables.  Z, B and H
are computed on the normalized complex, the cochains that vanish whenever
an argument is 1, which has the same H^n (K. S. Brown, Cohomology of
Groups, III.1; Weibel, An Introduction to Homological Algebra, 6.5) and
leaves every tuple holding the identity out of each elimination.

One elimination routine, the Howell echelon _echelon, gives the cocycles
in Howell form, from one echelon of the stacked columns (e_j, d^n e_j)
(kernel_basis), and the Hermite basis of the relation lattice of H^n
(lattice_basis).  That triangular basis alone gives |H^n|, the canonical
representatives and the reduction of a cocycle to its representative
(Storjohann & Mulders, ESA 1998; Cohen, A Course in Computational Algebraic
Number Theory, 2.4).  smith_normal_form computes only the invariant
diagonal, from the indices of Hermite bases modulo prime powers; no
transform matrix is tracked.

Beyond H^0, the bar complex of G is eliminated only when G is a p-group
and p divides |M|.  Otherwise H^n(G, M), n = 1, 2, is the direct sum over
the primes p dividing |G| and |M| of the stable elements of H^n(P, M), P a
Sylow p-subgroup (Cartan & Eilenberg, Homological Algebra, XII.10; Brown,
III.10), and is 0 when there are no such primes; see SylowCoclassSet.
"""

from __future__ import annotations

import math
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import cycle, product
from operator import add, mul, neg, sub
from typing import Callable, Dict

from . import GROUP_CAP, MODULE_CAP, InternalError, UnsupportedSize
from .permstruct import (
    FiniteAbelian,
    Perm,
    PermGroup,
    _small_generating_set,
    extend_hom,
    hom_search,
    orbits,
    prime_powers,
)


class GroupCohError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sparse elimination modulo N, and the Smith invariants it gives
# ---------------------------------------------------------------------------

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


def _echelon(pool, mods):
    """Howell echelon form of the columns in pool, each a sparse dict
    (row -> nonzero entry) with entry r taken modulo mods[r].

    Returns the pivots, a dict mapping a row r to the one column that leads
    at r.  A column leads at its last nonzero row; eliminating from the
    bottom keeps the bar-resolution coboundaries sparse, with about a fifth
    of the work of eliminating from the top when |G| is 12 to 24.  Two
    columns leading at the same row are merged by an extended gcd.  A
    column leading with g modulo m_r is scaled to lead with gcd(g, m_r), and
    its multiple by m_r / gcd(g, m_r) from before the scaling, whose row r
    vanishes, goes back into the pool.  That is the Howell step of
    Storjohann and Mulders ("Fast algorithms for linear algebra modulo N",
    ESA 1998): afterwards any vector the columns span that vanishes after
    row r has its row r entry divisible by the pivot's (zero modulo m_r
    when no column leads at r), so no torsion element is lost and division
    by the pivots from the last row down finds coordinates.
    """
    pool = pool[::-1]
    pivots = {}
    while pool:
        col = _combine(1, pool.pop(), 0, None, mods)
        rows = [-i for i in col]  # max-heap of the column's rows
        heapify(rows)
        while rows:
            r = -heappop(rows)
            x = col.get(r)
            if not x:
                continue
            m = mods[r]
            piv = pivots.get(r)
            if piv is None:
                g, u, _ = _xgcd(x, m)
                pool.append(_combine(m // g, col, 0, None, mods))
                if u != 1:
                    col = _combine(u, col, 0, None, mods)
                pivots[r] = col
                break
            for i in piv:  # rows below r that the pivot brings in
                if i not in col:
                    heappush(rows, -i)
            p = piv[r]
            if x % p == 0:
                _axpy(col, -(x // p), piv, mods)
                continue
            g, s, t = _xgcd(p, x)
            piv, col = (_combine(s, piv, t, col, mods),
                        _combine(x // g, piv, -p // g, col, mods))
            pivots[r] = piv
            pool.append(_combine(m // g, piv, 0, None, mods))
    return pivots


def kernel_basis(W, row_mods, col_mods):
    """Howell basis of the kernel of the integer matrix W modulo its row
    moduli, from one echelon of the stacked columns (e_j, W e_j).

    W is a list of sparse columns (dicts row -> nonzero entry).  Row r is an
    equation modulo row_mods[r], and coordinate j is reduced modulo
    col_mods[j], where W must send col_mods[j] * e_j to zero modulo the row
    moduli.  Stacked, coordinate j is row j and image row r is row a + r for
    a = len(col_mods), so every column whose image vanishes leads at a
    coordinate.  Those pivots are returned, sparse vectors with distinct
    leading (last nonzero) coordinates, in descending order of them: every
    kernel vector reduces to zero by division down the list.
    """
    a = len(col_mods)
    pivots = _echelon([{j: 1, **{a + r: v for r, v in col.items()}}
                       for j, col in enumerate(W)], [*col_mods, *row_mods])
    return [pivots[r] for r in sorted(pivots, reverse=True) if r < a]


def lattice_basis(gens, modulus):
    """Basis of the lattice spanned by the given column vectors (each a list
    of length a) and by modulus * Z^a: a triangular columns, column r zero
    below row r and leading at row r with a divisor of the modulus, so the
    index of the lattice is the product of those leading entries.  Entries
    are reduced modulo the modulus as the basis is built, so none exceeds
    it."""
    if not gens:
        return []
    a = len(gens[0])
    pivots = _echelon([{i: x for i, x in enumerate(g) if x} for g in gens],
                      [modulus] * a)
    cols = [pivots.get(r, {r: modulus}) for r in range(a)]
    return [[c.get(i, 0) for i in range(a)] for c in cols]


def smith_normal_form(M, N):
    """The Smith invariants over Z/N of the integer matrix M: one entry per
    row, ascending, each dividing N and the next, N standing for 0.

    Only the diagonal is computed, from lattice_basis.  For L the column
    span of M and p^k dividing N, the index of L + p^k Z^rows is
    p^(sum_i min(v_p(d_i), k)) over the invariants d_i, a row beyond the
    last column counting as d_i = 0; so its growth from p^(k-1) to p^k
    counts the d_i that p^k divides.
    """
    rows = len(M)
    cols = [list(c) for c in zip(*M)] or [[0] * rows]
    diag = [1] * rows
    for p, e in prime_powers(N).items():
        prev = 0
        for k in range(1, e + 1):
            logs = 0  # log_p of the index, from the diagonal of the basis
            for r, col in enumerate(lattice_basis(cols, p ** k)):
                h = col[r]
                while h > 1:
                    h, logs = h // p, logs + 1
            for i in range(rows - (logs - prev), rows):
                diag[i] *= p
            prev = logs
    return diag


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
    group, the action given as a dict Perm -> automorphism dict.

    Sorted G is indexed once: mul[i][j] is the index of the product of
    elements i and j, and action_matrices[i] is the matrix of element i.
    The identity, the least permutation, is index 0.  The normalized
    coboundary matrices, the CoclassSet of each degree and the module over
    a Sylow p-subgroup for each prime p (_sylow_submodule) are built on
    first use and kept on the module."""

    def __init__(self, group: PermGroup, module: FiniteAbelian, action: Dict):
        _check_caps(group, module)
        self.action = dict(action)
        els = sorted(group.elements)
        ident = Perm.identity(group.n)
        one = {m: m for m in module.elements}
        if self.action.setdefault(ident, one) != one:
            raise GroupCohError("the identity must act as the identity map")
        for g in els:
            if g not in self.action:
                raise GroupCohError(f"action missing for {g.to_cycles()}")
        outside = sorted(self.action.keys() - set(els))
        if outside:
            raise GroupCohError(f"action given for {outside[0].to_cycles()}, "
                                "which is not in G")
        if els[0] != ident:
            raise InternalError("internal: identity is not the first "
                                "element of sorted G")
        self._index(group, module, els)
        # an action by automorphisms: 1 acts as 1, each generator s by its
        # matrix A, whose column i (the image of the i-th cyclic generator)
        # that generator's order kills, and a(g s) = a(g) a(s) for every g,
        # so a(g h) = a(g) a(h) for every product h of generators
        pts, orders = module.elements, module.cyclic_orders
        acts = [self.action[g] for g in els]
        for s in group.generators:
            j = self.index[s]
            A = self.action_matrices[j]
            if any(d * x % m for row, m in zip(A, orders)
                   for x, d in zip(row, orders)) or any(
                    acts[j][x] != tuple(sum(map(mul, row, x)) % m
                                        for row, m in zip(A, orders))
                    for x in pts):
                raise GroupCohError(f"action of {s.to_cycles()} is not "
                                    "additive")
            for ag, row in zip(acts, self.mul):
                if any(acts[row[j]][m] != ag[acts[j][m]] for m in pts):
                    raise GroupCohError("action is not a homomorphism")

    def _index(self, group: PermGroup, module: FiniteAbelian, els):
        """Index sorted G, els: the product table, from the images of the
        permutations, and the action matrices; the caches start empty."""
        self.group = group
        self.module = module
        self.elements = els
        self.index = {g: i for i, g in enumerate(els)}
        at = {g.images: i for i, g in enumerate(els)}
        self.mul = [[at[tuple(map(g.images.__getitem__, h.images))]
                     for h in els] for g in els]
        self.action_matrices = [self.action_matrix(g) for g in els]
        self._coboundaries = {}
        self._cohomology = {}
        self._sylow = {}

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
        for g in gen_action:
            if g not in group.elements:
                raise GroupCohError(f"action given for {g.to_cycles()}, "
                                    "which is not in G")
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


def _bar_rows(c: Cochain, last=None):
    """The rows of d^n applied to c, from the bar formula in _bar_sources:
    the k entries at each tuple (g_0, ..., g_n) of the full complex, not
    yet reduced, for the rows that _bar_sources gives with last."""
    if c.arity not in (0, 1, 2):
        raise GroupCohError("degree must be 0..2")
    gm = c.gm
    k = len(gm.module.cyclic_orders)
    v = c.vector
    vals = [v[j:j + k] for j in range(0, len(v), k)]
    acts = gm.action_matrices
    for a, (j, *terms) in _bar_sources(gm.mul, c.arity, last=last):
        x = vals[j]
        row = [sum(p * q for p, q in zip(r, x)) for r in acts[a]]
        for sign, t in zip((-1, 1, -1), terms):
            row = [u + sign * w for u, w in zip(row, vals[t])]
        yield row


def coboundary(c: Cochain) -> Cochain:
    """The differential d^n of the full inhomogeneous bar complex applied to
    c, evaluated row by row; no matrix is stored for it."""
    return Cochain.from_vector(c.gm, c.arity + 1,
                               [x for row in _bar_rows(c) for x in row])


def _is_cocycle(c: Cochain) -> bool:
    """Whether d^n(c) = 0, read on the rows whose last argument is a
    generator s of G.  That suffices: with b = d^n(c), d(b) = 0 at
    (g_0, ..., h, s) gives b(g_0, ..., h s) = b(g_0, ..., h) once b
    vanishes at every (g_0, ..., s), so b is constant in its last argument,
    which the generators carry through all of G."""
    gm = c.gm
    gens = {gm.index[s] for s in gm.group.generators} or {0}
    orders = gm.module.cyclic_orders
    return not any(x % d for row in _bar_rows(c, gens)
                   for x, d in zip(row, orders))


# ---------------------------------------------------------------------------
# cohomology by sparse elimination modulo the orders of M
# ---------------------------------------------------------------------------

def _bar_sources(mul, n, normalized=False, last=None):
    """For each row (g_0, ..., g_n) of d^n, in itertools.product order over
    the indices of sorted G: the index of g_0 and the C^n positions of the
    terms of the bar formula, first the one g_0 acts on, then the rest in
    the order of their signs -1, +1, -1.

    By default the rows and positions are those of the full bar complex,
    all tuples of G.  With normalized set they are those of the normalized
    complex: tuples of G minus the identity (index 0), counted among
    themselves, and a term whose argument holds a product equal to the
    identity has position None.  With last set, only the rows whose g_n
    has an index in last come, in the same order."""
    N = len(mul)
    lo = int(normalized)
    base = N - lo
    els = range(lo, N)
    ends = els if last is None else sorted(last)
    if n == 0:
        for a in ends:
            yield a, (0, 0)
    elif n == 1:
        for a in els:
            ma = mul[a]
            for b in ends:
                ab = ma[b]
                yield a, (b - lo, ab - lo if ab >= lo else None, a - lo)
    else:
        for a in els:
            ma, ra = mul[a], (a - lo) * base - lo
            for b in els:
                mb, ab, rb = mul[b], ma[b], (b - lo) * base - lo
                rab = (ab - lo) * base - lo if ab >= lo else None
                for c in ends:
                    bc = mb[c]
                    yield a, (rb + c, None if rab is None else rab + c,
                              ra + bc if bc >= lo else None, ra + b)


def _boundary_matrix(gm: FiniteGModule, n: int):
    """The coboundary d^n of the normalized bar complex, whose cochains
    vanish whenever an argument is 1, as an integer matrix in the cyclic
    coordinates: (|G| - 1)^n * k columns, one per coordinate of a tuple of
    G minus the identity, each a dict from row coordinate ((|G| - 1)^(n+1)
    * k of them) to nonzero entry.  The terms of
    d0(u)(g) = g.u - u; d1(s)(g,h) = g.s(h) - s(gh) + s(g);
    d2(s)(g,h,k) = g.s(h,k) - s(gh,k) + s(g,hk) - s(g,h)
    whose argument holds a product equal to 1 (gh = 1 or hk = 1) vanish on
    normalized cochains and are dropped.

    Positions are read from the module's index table, so with N = |G| - 1
    the row of the non-identity elements with indices (g, h, k) is
    ((g-1)*N + h-1)*N + k-1.  The matrix is built once per module and
    degree and kept on the module; callers must not change it."""
    if n not in (0, 1, 2):
        raise GroupCohError("degree must be 0..2")
    cols = gm._coboundaries.get(n)
    if cols is not None:
        return cols
    k = len(gm.module.cyclic_orders)
    cols = [{} for _ in range((len(gm.elements) - 1) ** n * k)]
    # each block as its nonzero (column, row, entry) triples within k x k:
    # the action matrix of g_0, then +-1 times the identity
    acts = [[(s, r, A[r][s]) for s in range(k) for r in range(k) if A[r][s]]
            for A in gm.action_matrices]
    signs = [[(s, s, (-1) ** i) for s in range(k)] for i in range(1, n + 2)]
    for i0, (a, srcs) in enumerate(_bar_sources(gm.mul, n, True)):
        i0 *= k
        for block, j0 in zip([acts[a]] + signs, srcs):
            if j0 is None:
                continue
            j0 *= k
            for s, r, v in block:
                col = cols[j0 + s]
                col[i0 + r] = col.get(i0 + r, 0) + v
    cols = gm._coboundaries[n] = [{i: v for i, v in col.items() if v}
                                  for col in cols]
    return cols


def _divide(v, basis, leads, mods):
    """Integer coordinates of the sparse vector v (dict index -> entry) in
    the Howell basis `basis`, whose vectors lead at the descending
    coordinates `leads`, by division down the list with entry i taken
    modulo mods[i]; None if v is not in their span."""
    v = _combine(1, v, 0, None, mods)
    y = [0] * len(leads)
    for i, (r, h) in enumerate(zip(leads, basis)):
        x = v.get(r, 0)
        if x:
            if x % h[r]:
                return None
            y[i] = x // h[r]
            _axpy(v, -y[i], h, mods)
    return None if v else y


def _relations(basis, leads, mods, extra, fault):
    """Relations spanning the lattice L of the presentation Z^z / L of the
    span of the Howell basis `basis` (z vectors, as in _divide): for each
    h_r, leading at r with g_r, the coordinates of (m_r / g_r) * h_r
    (m_r = mods[r]) in the later h's less m_r / g_r at r; then the
    coordinates of each sparse vector of extra, InternalError(fault) if one
    has none."""
    rels = []
    for i, (r, h) in enumerate(zip(leads, basis)):
        q = mods[r] // h[r]
        rel = _divide({j: q * x for j, x in h.items()}, basis, leads, mods)
        if rel is None:
            raise InternalError("internal: basis not in Howell form")
        rel[i] -= q
        rels.append(rel)
    for v in extra:
        rel = _divide(v, basis, leads, mods)
        if rel is None:
            raise InternalError(fault)
        rels.append(rel)
    return rels


class CoclassSet:
    """H^n(G, M): invariant factors, representatives, and coset reduction,
    computed on the normalized bar complex of G.

    A normalized n-cochain is held as its values on the tuples of G minus
    the identity, in itertools.product order, in the cyclic coordinates,
    each entry modulo the order of its cyclic factor.  The cocycles Z^n, the
    kernel of the normalized coboundary modulo those orders, come out of
    kernel_basis in Howell form: basis cocycles h_1..h_z with distinct
    leading coordinates, in which every cocycle has integer coordinates
    found by division.  H^n is Z^z modulo the lattice L of relations among
    the h_i and the coordinates of the normalized coboundaries.

    L is held by its Hermite basis H = lattice_basis(relations, e), e the
    exponent of M: column r leads at row r with an entry h_r dividing e.
    So |H^n| is the product of the h_r; a cocycle reduces to the one
    representative whose coordinates y have 0 <= y_r < h_r, by subtracting
    multiples of the columns from the last row up; and the representatives
    are the box of those y.  The invariant factors, (|G| - 1)^n * k of them
    with the 1s first, are read from H by smith_normal_form, which computes
    the diagonal only.

    Representatives are full Cochains, zero on every tuple holding the
    identity, and reduce takes any full cocycle.  d^n and d^(n-1) are the
    module's stored normalized coboundary matrices.  cohomology(gm, n)
    builds this bar route for H^0 and for a p-group G with p dividing |M|,
    and keeps one set per module and degree.
    """

    def __init__(self, gm: FiniteGModule, degree: int):
        if degree not in (0, 1, 2):
            raise GroupCohError("degree must be 0, 1, or 2")
        self.gm = gm
        self.degree = degree
        M = gm.module
        k = len(M.cyclic_orders)
        N = len(gm.elements)
        # the full position of each normalized tuple: no entry is index 0
        pos = [0]
        for _ in range(degree):
            pos = [p * N + g for p in pos for g in range(1, N)]
        self._embed = [p * k + s for p in pos for s in range(k)]
        self._size = N ** degree * k
        mods = [M.cyclic_orders[i % k] for i in range(len(self._embed))]
        self._mods = mods
        # Z^n: cochains x with d^n(x) = 0 modulo the target moduli
        self._howell = kernel_basis(_boundary_matrix(gm, degree),
                                    mods * (N - 1), mods)
        self._lead = [max(h) for h in self._howell]
        # L: the relations among the h's, then B^n, the image of d^{n-1}
        self._present(_relations(
            self._howell, self._lead, mods,
            _boundary_matrix(gm, degree - 1) if degree else [],
            "internal: coboundary outside cocycle lattice"), len(self._lead))

    def _present(self, rels, z):
        """Read H^n = Z^z / L from the relations spanning L, with e * Z^z
        (e the exponent of M, which kills H^n) added: the Hermite basis, the
        order and the invariant factors, in one smith_normal_form call."""
        M = self.gm.module
        basis = lattice_basis(rels, M.exponent)
        # each column's entries above its diagonal, sparse, and the diagonal
        self._hermite = [[(i, x) for i, x in enumerate(col[:r]) if x]
                         for r, col in enumerate(basis)]
        self._box = [col[r] for r, col in enumerate(basis)]
        a = (len(self.gm.elements) - 1) ** self.degree * len(M.cyclic_orders)
        self.invariants = [1] * (a - z) + smith_normal_form(
            [[col[i] for col in basis] for i in range(z)], M.exponent)
        self.order = math.prod(self._box)

    @cached_property
    def representatives(self):
        """One cocycle per class, listed on first access: there are
        self.order of them.  A tuple, since cohomology() hands the same
        CoclassSet to every caller."""
        return tuple(self._cochain(y)
                     for y in product(*(range(h) for h in self._box)))

    def _cochain(self, y):
        """The cocycle with coordinates y in the Howell basis, as a full
        Cochain, zero on every tuple holding the identity."""
        out = {}
        for c, h in zip(y, self._howell):
            if c:
                _axpy(out, c, h, self._mods)
        vec = [0] * self._size
        for j, x in out.items():
            vec[self._embed[j]] = x
        return Cochain.from_vector(self.gm, self.degree, vec)

    def _cocycle_coords(self, c: Cochain):
        """The Howell coordinates of a normalized cocycle cohomologous to
        the full cocycle c.

        A full cocycle is cohomologous to a normalized one: in degree 1 it
        vanishes at 1 already, and in degree 2 subtracting d of the constant
        1-cochain c(1, 1) makes it vanish on every tuple holding 1.  A full
        cochain vanishing there is a cocycle just when its normalized part
        is one."""
        if self.degree == 2:
            k = len(self.gm.module.cyclic_orders)
            c = c - coboundary(Cochain.from_vector(
                self.gm, 1, c.vector[:k] * len(self.gm.elements)))
        v = c.vector
        part = {j: v[i] for j, i in enumerate(self._embed) if v[i]}
        y = _divide(part, self._howell, self._lead, self._mods)
        if y is None or len(part) != len(v) - v.count(0):
            raise GroupCohError("not a cocycle")
        return y

    def reduce(self, c: Cochain) -> Cochain:
        """The canonical representative cohomologous to the cocycle c, a
        full cochain."""
        if c.arity != self.degree or c.gm is not self.gm and \
                (c.gm.elements != self.gm.elements):
            raise GroupCohError("cochain does not match this coclass set")
        y = self._cocycle_coords(c)
        # Hermite reduction: column r touches only rows up to r
        for r in reversed(range(len(y))):
            q, y[r] = divmod(y[r], self._box[r])
            if q:
                for i, x in self._hermite[r]:
                    y[i] -= q * x
        return self._cochain(y)

    def same_class(self, c1: Cochain, c2: Cochain) -> bool:
        return self.reduce(c1) == self.reduce(c2)


def _sylow_submodule(gm: FiniteGModule, p: int) -> FiniteGModule:
    """The module over a Sylow p-subgroup P of G, built once and kept on
    gm.  P grows greedily over sorted G: an element joins when the span
    stays a p-group.  An element left out stays out of every larger
    p-subgroup, so one pass ends at a maximal p-subgroup, and a maximal
    p-subgroup is a Sylow subgroup."""
    pm = gm._sylow.get(p)
    if pm is None:
        N = len(gm.elements)
        part = p ** prime_powers(N)[p]  # the order of a Sylow P
        span, gens = [0], []
        for g in range(1, N):
            if len(span) == part:
                break
            if g not in span:
                grown = orbits([0], gens + [g], lambda s, a: gm.mul[a][s])[0]
                if part % len(grown) == 0:
                    span, gens = grown, gens + [g]
        P = PermGroup(gm.group.n, [gm.elements[i] for i in gens])
        pm = gm._sylow[p] = submodule_over(gm, P)
    return pm


def _stable_cocycles(gm: FiniteGModule, hp: CoclassSet):
    """Howell basis of the lattice K of Howell coordinates x (taken modulo
    the exponent e of M) of cocycles of H^n(P, M), P the group of hp's
    module, whose class is stable: for each double coset P g P other than
    P, res(x) - res(g.x) is a coboundary on Q, the intersection of P and
    gPg^-1, where (g.f)(a, b) = g.f(g^-1 a g, g^-1 b g).  So K / L_P is
    the stable subgroup, L_P the relation lattice of H^n(P, M).

    K is the kernel of one matrix: its columns are the normalized
    (n-1)-cochains b_g of each Q first, entering by -d(b_g), then the x,
    entering by res(h_i) - res(g.h_i); a row is a normalized n-tuple of a
    Q and a cyclic coordinate.  The kernel vectors that lead at an x
    coordinate, cut to their x part, are a Howell basis of K."""
    pm, n = hp.gm, hp.degree
    M = gm.module
    k = len(M.cyclic_orders)
    mul = gm.mul
    inv = [row.index(0) for row in mul]
    idx = [gm.index[h] for h in pm.elements]  # ascending, as pm sorts
    in_p = {g: i for i, g in enumerate(idx)}
    base = len(idx) - 1
    x_cols = [{} for _ in hp._howell]
    W, row_mods, col_mods = [], [], []
    seen = set()
    for g in range(len(mul)):
        if g in seen:
            continue
        seen.update(mul[mul[a][g]][b] for a in idx for b in idx)
        if g == 0:  # P itself: g acts trivially on H^n(P, M)
            continue
        Q = [q for q in idx if mul[mul[inv[g]][q]][g] in in_p]
        if len(Q) == 1:  # H^n(1, M) = 0 asks nothing
            continue
        qm = pm if len(Q) == len(idx) else submodule_over(
            pm, PermGroup(gm.group.n, [gm.elements[q] for q in Q]))
        at = len(row_mods)
        W += [{at + r: v for r, v in col.items()}
              for col in _boundary_matrix(qm, n - 1)]
        col_mods += [M.cyclic_orders[j % k]
                     for j in range((len(Q) - 1) ** (n - 1) * k)]
        A = gm.action_matrices[g]
        for row, key in enumerate(product(Q[1:], repeat=n)):
            here = there = 0
            for q in key:
                here = here * base + in_p[q] - 1
                there = there * base + in_p[mul[mul[inv[g]][q]][g]] - 1
            for r, m in enumerate(M.cyclic_orders):
                for h, col in zip(hp._howell, x_cols):
                    v = (h.get(here * k + r, 0) - sum(
                        A[r][s] * h.get(there * k + s, 0)
                        for s in range(k))) % m
                    if v:
                        col[at + row * k + r] = v
            row_mods += M.cyclic_orders
    t = len(W)
    kb = kernel_basis(W + x_cols, row_mods,
                      col_mods + [M.exponent] * len(x_cols))
    return [{j - t: v for j, v in vec.items() if j >= t}
            for vec in kb if max(vec) >= t]


class SylowCoclassSet(CoclassSet):
    """H^n(G, M), n = 1, 2, for G not a p-group or |M| prime to |G|, from
    the stable elements of its Sylow subgroups; no elimination runs on the
    bar complex of G.

    H^n(G, M) is killed by |G| and by |M|, so it is the direct sum of its
    p-parts over the primes p dividing both, and is 0 if there are none.
    Restriction to a Sylow p-subgroup P maps the p-part isomorphically onto
    the stable subgroup S_p of H^n(P, M) (Cartan & Eilenberg, XII.10;
    Brown, III.10); H^n(P, M) is the bar route's, on the module kept on gm.
    S_p = K / L_P, for K the stable Howell coordinates (_stable_cocycles)
    and L_P the Hermite lattice of H^n(P, M), and the direct sum over p is
    presented as in CoclassSet, by one Hermite basis and one
    smith_normal_form call.

    The class with coordinates y_p in each S_p is represented by the sum
    of cor(u_p * x_p), x_p the P-cocycle of y_p and u_p [G:P] = 1 modulo
    |P|, since res cor is [G:P] on stable classes.  reduce checks that c
    is a G-cocycle, then reads y_p from res_P(eps_p * c), eps_p = u_p [G:P]
    the idempotent of the p-part of |G|.
    """

    def __init__(self, gm: FiniteGModule, degree: int):
        if degree not in (1, 2):
            raise GroupCohError("degree must be 1 or 2")
        self.gm = gm
        self.degree = degree
        e = gm.module.exponent
        N = len(gm.elements)
        # per prime: H^n(P), the Howell basis of K with its leads and
        # moduli, u_p, eps_p and the transfer table of P
        self._parts = []
        rels, z = [], 0
        for p in prime_powers(math.gcd(N, gm.module.order)):
            hp = cohomology(_sylow_submodule(gm, p), degree)
            if hp.order == 1:  # then the p-part is 0 too
                continue
            kappa = _stable_cocycles(gm, hp)
            leads = [max(v) for v in kappa]
            emods = [e] * len(hp._howell)
            # L_P, the Hermite columns of H^n(P, M), is stable, being 0
            own = _relations(kappa, leads, emods,
                             [{r: h, **dict(col)} for r, (h, col)
                              in enumerate(zip(hp._box, hp._hermite))],
                             "internal: a relation of H^n(P) is not stable")
            s = len(kappa)
            rels = [rel + [0] * s for rel in rels] + \
                [[0] * z + rel for rel in own]
            z += s
            P = hp.gm.group
            index = N // P.order
            u = pow(index, -1, P.order)
            self._parts.append((hp, kappa, leads, emods, u, u * index,
                                _transfer_table(gm, P)))
        self._present(rels, z)

    def _cochain(self, y):
        """The sum over p of cor(u_p * x_p), x_p the P-cocycle whose
        coordinates in the Howell basis of K are y's slice for p."""
        out = Cochain.zero(self.gm, self.degree)
        at = 0
        for hp, kappa, _, emods, u, _, table in self._parts:
            w = {}
            for c, v in zip(y[at:at + len(kappa)], kappa):
                if c:
                    _axpy(w, c * u, v, emods)
            at += len(kappa)
            if w:
                x = hp._cochain([w.get(i, 0) for i in range(len(emods))])
                out = out + _corestrict(self.gm, x, table)
        return out

    def _cocycle_coords(self, c: Cochain):
        """The coordinates, slice by slice over p, of the class of
        res_P(eps_p * c) in the Howell basis of K, once c is known to be a
        G-cocycle: a restriction alone can be a cocycle when c is not."""
        if not _is_cocycle(c):
            raise GroupCohError("not a cocycle")
        y = []
        for hp, kappa, leads, emods, _, eps, _ in self._parts:
            w = hp._cocycle_coords(_restrict(c.smul(eps), hp.gm))
            coords = _divide({i: x for i, x in enumerate(w) if x}, kappa,
                             leads, emods)
            if coords is None:
                raise InternalError("internal: restriction of a cocycle "
                                    "is not stable")
            y += coords
        return y


def cohomology(gm: FiniteGModule, n: int) -> CoclassSet:
    """H^n(G, M), built on the first call for this module and degree and
    returned again after that: by the bar route (CoclassSet) for n = 0 and
    for a p-group G with p dividing |M|, and otherwise from Sylow
    subgroups (SylowCoclassSet)."""
    h = gm._cohomology.get(n)
    if h is None:
        primes = list(prime_powers(len(gm.elements)))
        bar = n == 0 or (len(primes) == 1
                         and gm.module.order % primes[0] == 0)
        h = gm._cohomology[n] = (CoclassSet if bar else SylowCoclassSet)(gm, n)
    return h


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
    matching representative of cohomology(gm, 1), the module's one H^1.
    The dictionary is a bijection, so an InternalError is raised if the
    correspondence fails to be one."""
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
        raise InternalError("internal: Hol-dictionary bijection failed")
    return classes, bij


# ---------------------------------------------------------------------------
# restriction and corestriction
# ---------------------------------------------------------------------------

def _check_subgroup(gm: FiniteGModule, H: PermGroup):
    if H.n != gm.group.n or not H.elements <= gm.group.elements:
        raise GroupCohError("H is not a subgroup of G")


def submodule_over(gm: FiniteGModule, H: PermGroup) -> FiniteGModule:
    """The same module viewed over the subgroup H.  Its action, restricted
    from the checked action of G, is a homomorphism unchecked."""
    _check_subgroup(gm, H)
    hm = FiniteGModule.__new__(FiniteGModule)
    hm.action = {h: gm.action[h] for h in H.elements}
    hm._index(H, gm.module, sorted(H.elements))
    return hm


def _restrict(c: Cochain, hm: FiniteGModule) -> Cochain:
    """The cochain c of G read on the tuples of the subgroup of hm."""
    gm = c.gm
    k = len(gm.module.cyclic_orders)
    N = len(gm.elements)
    v = c.vector
    out = []
    for key in product([gm.index[h] for h in hm.elements], repeat=c.arity):
        i = 0
        for g in key:
            i = i * N + g
        out += v[i * k:i * k + k]
    return Cochain.from_vector(hm, c.arity, out)


def _transfer_table(gm: FiniteGModule, H: PermGroup):
    """The left coset representatives of H in G, the least index of each
    coset gH, and for each index x of G the pair (r, j) with x = r h_j, r
    a representative and h_j the j-th element of sorted H."""
    hs = [gm.index[h] for h in sorted(H.elements)]
    reps, split = [], [None] * len(gm.elements)
    for g, row in enumerate(gm.mul):
        if split[g] is None:
            reps.append(g)
            for j, h in enumerate(hs):
                split[row[h]] = (g, j)
    return reps, split


def _corestrict(gm: FiniteGModule, c: Cochain, table) -> Cochain:
    """The corestriction of the cochain c over H to G, table being
    _transfer_table(gm, H), by the transfer on inhomogeneous cochains
    (Neukirch, Schmidt & Wingberg, Cohomology of Number Fields, I.5).  At
    (s_1, ..., s_n) each representative t_0 is carried through the
    arguments from the last, s_n t_0 = t_1 h_n, s_(n-1) t_1 = t_2 h_(n-1),
    ..., and adds t_n . c(h_1, ..., h_n).  So cor(c)() = sum_r r.c(),
    cor(c)(s) = sum_r r'.c(h) with s r = r' h, and cor(c)(s, t) =
    sum_r r''.c(h', h) with t r = r' h and s r' = r'' h'."""
    reps, split = table
    k = len(gm.module.cyclic_orders)
    size = len(c.gm.elements)
    mul, acts, v = gm.mul, gm.action_matrices, c.vector
    out = []
    for key in product(range(len(mul)), repeat=c.arity):
        acc = [0] * k
        for t in reps:
            j, w = 0, 1
            for s in reversed(key):
                t, h = split[mul[s][t]]
                j, w = j + h * w, w * size
            x = v[j * k:j * k + k]
            acc = [a + sum(p * q for p, q in zip(row, x))
                   for a, row in zip(acc, acts[t])]
        out += acc
    return Cochain.from_vector(gm, c.arity, out)


def res_cor(gm: FiniteGModule, H: PermGroup, c: Cochain, direction: str):
    """Restriction / corestriction in degrees 0 to 2.

    res: H^n(G, M) -> H^n(H, M) by table restriction.
    cor: H^n(H, M) -> H^n(G, M) by the transfer (_corestrict), for c a
    cochain over H.
    """
    _check_subgroup(gm, H)
    if c.arity > 2:
        raise GroupCohError("res and cor implemented in degrees 0 to 2")
    if direction == "res":
        return _restrict(c, submodule_over(gm, H))
    if direction != "cor":
        raise GroupCohError("direction must be 'res' or 'cor'")
    if c.gm.elements != sorted(H.elements):
        raise GroupCohError("cor needs a cochain over H")
    return _corestrict(gm, c, _transfer_table(gm, H))


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
    reps = [X.elements[r] for r in _transfer_table(X, H)[0]]
    out = {}
    for m in X.module.elements:
        acc = Y.module.zero()
        for r in reps:
            acc = Y.module.add(acc, Y.act(r, f[X.act(r.inverse(), m)]))
        out[m] = acc
    return out


def pushforward(dst: FiniteGModule, f: Dict, c: Cochain):
    """Apply a module map to the values of a cochain (same group)."""
    return Cochain(dst, c.arity, {k: f[c(*k)] for k in
                                  product(c.gm.elements, repeat=c.arity)})


def lemma53_check(X: FiniteGModule, Y: FiniteGModule, H: PermGroup,
                  f: Dict, n: int):
    """Check Cor(f_* Res sigma) ~ (f~)_* sigma on every class of H^n(G, X).

    Returns (True, None) or (False, offending class representative)."""
    if n not in (0, 1, 2):
        raise GroupCohError("n must be 0, 1 or 2")
    _check_subgroup(X, H)
    _check_h_linear(X, Y, H, f)
    ftilde = induced_map(X, Y, H, f)
    hy = submodule_over(Y, H)
    hn_y = cohomology(Y, n)
    for sigma in cohomology(X, n).representatives:
        res = res_cor(X, H, sigma, "res")
        fres = pushforward(hy, f, res)
        cor = res_cor(Y, H, fres, "cor")
        direct = pushforward(Y, ftilde, sigma)
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
    if not (_is_cocycle(z1) and _is_cocycle(z2)):
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
    if not _is_cocycle(c):
        raise InternalError("cup product not a cocycle (internal error)")
    return c
