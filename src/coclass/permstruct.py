"""Finite permutation-group machinery: holomorphs, Cayley embeddings,
centralizers, G-structures, resolvent images, stable partitions, and
torsor-structure correspondences.

Scope is desk scale: exhaustive enumeration with a hard degree cap of 8
(8! = 40320), no Schreier-Sims.  Permutations are serialized in cycle
notation, groups by generator lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from . import _kernels

DEGREE_CAP = 8


class PermStructError(ValueError):
    pass


class UnsupportedDegree(PermStructError):
    pass


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Perm:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise PermStructError(f"not a bijection: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(n)))

    @staticmethod
    def from_cycles(text: str, n: int) -> "Perm":
        """Parse cycle notation, e.g. "(0 1 2)(3 4)"; "()" is the identity."""
        images = list(range(n))
        body = text.strip()
        if body in ("()", "", "id"):
            return Perm(tuple(images))
        if not (body.startswith("(") and body.endswith(")")):
            raise PermStructError(f"bad cycle notation: {text!r}")
        seen = set()
        for chunk in body[1:-1].split(")("):
            pts = [int(tok) for tok in chunk.replace(",", " ").split()]
            if len(pts) < 2 or len(set(pts)) != len(pts):
                raise PermStructError(f"bad cycle: ({chunk})")
            for p in pts:
                if not 0 <= p < n or p in seen:
                    raise PermStructError(f"bad point {p} in {text!r}")
                seen.add(p)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return Perm(tuple(images))

    def to_cycles(self) -> str:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(out) if out else "()"

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (p * q)(x) = p(q(x))."""
        return Perm(tuple(self.images[i] for i in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(tuple(inv))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def order(self) -> int:
        k, p, e = 1, self, Perm.identity(self.n)
        while p != e:
            p = p * self
            k += 1
        return k

    def cycle_type(self) -> tuple:
        seen = [False] * self.n
        lens = []
        for start in range(self.n):
            if seen[start]:
                continue
            cnt, x = 0, start
            while not seen[x]:
                seen[x] = True
                cnt += 1
                x = self.images[x]
            lens.append(cnt)
        return tuple(sorted(lens, reverse=True))

    def conjugate(self, by: "Perm") -> "Perm":
        """by * self * by^-1."""
        return by * self * by.inverse()

    def __repr__(self):
        return f"Perm({self.to_cycles()!r}, n={self.n})"


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------

class PermGroup:
    """A subgroup of Sym(n), fully enumerated on demand."""

    def __init__(self, n: int, generators: Iterable[Perm]):
        self.n = n
        gens = []
        for g in generators:
            if g.n != n:
                raise PermStructError("generator degree mismatch")
            if g.images != tuple(range(n)) and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self._elements = None

    @staticmethod
    def from_cycle_strings(n: int, texts: Sequence[str]) -> "PermGroup":
        return PermGroup(n, [Perm.from_cycles(t, n) for t in texts])

    @staticmethod
    def from_elements(n: int, elements: Iterable[Perm]) -> "PermGroup":
        """The group with this element set, which must be closed under
        products, generated by a small subset of it."""
        group = PermGroup(n, [])
        group._elements = frozenset(elements)
        group.generators = tuple(_small_generating_set(group))
        return group

    @staticmethod
    def symmetric(n: int) -> "PermGroup":
        if n <= 1:
            return PermGroup(n, [])
        gens = [Perm(tuple([1, 0] + list(range(2, n))))]
        if n > 2:
            gens.append(Perm(tuple(list(range(1, n)) + [0])))
        return PermGroup(n, gens)

    def _enumerate(self, limit=None):
        """Close the generators under products and cache the elements; give
        up, returning None, as soon as there are more than `limit`."""
        e = Perm.identity(self.n)
        seen = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for p in frontier:
                for g in self.generators:
                    q = p * g
                    if q not in seen:
                        seen.add(q)
                        if limit is not None and len(seen) > limit:
                            return None
                        nxt.append(q)
            frontier = nxt
        self._elements = frozenset(seen)
        return self._elements

    @property
    def elements(self) -> frozenset:
        if self._elements is None:
            self._enumerate()
        return self._elements

    def order_at_most(self, cap: int) -> bool:
        """Whether |G| <= cap, enumerating no more than cap + 1 elements."""
        if self._elements is None:
            return self._enumerate(cap) is not None
        return len(self._elements) <= cap

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def __le__(self, other: "PermGroup") -> bool:
        return self.n == other.n and self.elements <= other.elements

    def same_group(self, other: "PermGroup") -> bool:
        return self.n == other.n and self.elements == other.elements

    def conjugate(self, by: Perm) -> "PermGroup":
        return PermGroup(self.n, [g.conjugate(by) for g in self.generators])

    def is_transitive(self) -> bool:
        return len(orbits([0], self.generators, Perm.__call__)[0]) == self.n

    def multiplication_closed(self) -> bool:
        els = self.elements
        return all(a * b in els for a in els for b in els)

    def __repr__(self):
        gens = ", ".join(g.to_cycles() for g in self.generators) or "()"
        return f"PermGroup(n={self.n}, <{gens}>)"


def orbits(points, gens, act):
    """The orbits through `points` of the group generated by `gens`, acting
    by act(g, x), each closed under the generators alone (Holt, Eick &
    O'Brien, Handbook of CGT, sec. 4.1): a finite group has no other
    elements to apply.  Each orbit is a list headed by the first of `points`
    it contains, and the orbits come in the order of their heads."""
    seen = set()
    out = []
    for x in points:
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for y in orbit:  # the list grows while it is read
            for g in gens:
                z = act(g, y)
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        out.append(orbit)
    return out


def extend_hom(n: int, gen_images: dict, mul, one):
    """Extend images of elements of Sym(n) to the group they generate.

    The keys of gen_images are closed under products, and the product p * g
    of a reached p with a key g gets the image mul(h(p), gen_images[g]), h
    sending the identity to `one`.  Returns the dict h (element -> image),
    or None as soon as some product gets two different images.  Every p and
    key g then satisfy h(p * g) = mul(h(p), h(g)), so h is a homomorphism.
    """
    e = Perm.identity(n)
    h = {e: one}
    frontier = [e]
    while frontier:
        nxt = []
        for p in frontier:
            for g, img in gen_images.items():
                q, v = p * g, mul(h[p], img)
                if q not in h:
                    h[q] = v
                    nxt.append(q)
                elif h[q] != v:
                    return None
        frontier = nxt
    return h


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------

class FiniteAbelian:
    """Direct sum of cyclic groups Z/d1 x ... x Z/dk, elements as tuples."""

    def __init__(self, cyclic_orders: Sequence[int]):
        if any(d < 2 for d in cyclic_orders):
            raise PermStructError("cyclic orders must be >= 2")
        self.cyclic_orders = tuple(cyclic_orders)

    @property
    def order(self) -> int:
        out = 1
        for d in self.cyclic_orders:
            out *= d
        return out

    @property
    def exponent(self) -> int:
        import math
        out = 1
        for d in self.cyclic_orders:
            out = math.lcm(out, d)
        return out

    @property
    def elements(self):
        return [tuple(t) for t in product(*(range(d) for d in self.cyclic_orders))]

    def zero(self):
        return tuple(0 for _ in self.cyclic_orders)

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.cyclic_orders))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.cyclic_orders))

    def smul(self, k: int, a):
        return tuple((k * x) % d for x, d in zip(a, self.cyclic_orders))

    def element_order(self, a) -> int:
        import math
        out = 1
        for x, d in zip(a, self.cyclic_orders):
            out = math.lcm(out, d // math.gcd(x, d))
        return out

    def linear_map(self, images):
        """The map sending x to the sum of x_i * images[i], images[i] being
        the image of the i-th cyclic generator, as a dict element ->
        element."""
        out = {}
        for x in self.elements:
            acc = self.zero()
            for xi, im in zip(x, images):
                acc = self.add(acc, self.smul(xi, im))
            out[x] = acc
        return out

    def automorphisms(self):
        """All automorphisms, as dicts element -> element."""
        els = self.elements
        out = []
        candidates = [[e for e in els if self.element_order(e) == d]
                      for d in self.cyclic_orders]
        for imgs in product(*candidates):
            phi = self.linear_map(imgs)
            if len(set(phi.values())) == len(els):
                out.append(phi)
        return out

    def maximal_order_elements(self):
        m = self.exponent
        return [e for e in self.elements if self.element_order(e) == m]

    def __repr__(self):
        return f"FiniteAbelian{self.cyclic_orders}"


class HolomorphGroup(PermGroup):
    """Hol M = M rtimes Aut M acting on the points of M by affine maps
    x -> a(x) + t."""

    def __init__(self, module: FiniteAbelian):
        self.module = module
        self.points = sorted(module.elements)
        self.point_index = {p: i for i, p in enumerate(self.points)}
        n = len(self.points)
        trans = []
        for t in self.points:
            trans.append(Perm(tuple(
                self.point_index[module.add(p, t)] for p in self.points)))
        auts = []
        for phi in module.automorphisms():
            auts.append(Perm(tuple(
                self.point_index[phi[p]] for p in self.points)))
        self.translation_perms = tuple(trans)
        self.aut_perms = tuple(auts)
        super().__init__(n, list(trans) + list(auts))

    def translation(self, t) -> Perm:
        return self.translation_perms[self.point_index[t]]

    def affine(self, phi: dict, t) -> Perm:
        """The permutation x -> phi(x) + t."""
        m = self.module
        return Perm(tuple(self.point_index[m.add(phi[p], t)]
                          for p in self.points))


def holomorph(M: FiniteAbelian) -> HolomorphGroup:
    return HolomorphGroup(M)


# ---------------------------------------------------------------------------
# Cayley embeddings and centralizers
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


def centralizer_in_sym(H: PermGroup) -> PermGroup:
    """The full centralizer of H in Sym(n), n <= 8, by exhaustive scan."""
    if H.n > DEGREE_CAP:
        raise UnsupportedDegree(f"degree {H.n} exceeds cap {DEGREE_CAP}")
    gens = [g.images for g in H.generators]
    cents = _kernels.perm_centralizer(H.n, gens)
    return PermGroup.from_elements(H.n, (Perm(tuple(c)) for c in cents))


def subgroup_conjugates(G: PermGroup):
    """All distinct Sym(n)-conjugates of G, as element frozensets: the orbit
    of G under conjugation by the two generators of Sym(n), so the cost is
    |Sym(n) : N(G)| * |G| conjugations, not n! * |G|."""
    if G.n > DEGREE_CAP:
        raise UnsupportedDegree(f"degree {G.n} exceeds cap {DEGREE_CAP}")
    return orbits([G.elements], PermGroup.symmetric(G.n).generators,
                  lambda s, els: frozenset(g.conjugate(s) for g in els))[0]


# ---------------------------------------------------------------------------
# G-structures
# ---------------------------------------------------------------------------

def _small_generating_set(group: PermGroup):
    """Greedy small generating set (keeps the image search tractable)."""
    els = sorted(group.elements, key=lambda p: (-p.order(), p))
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


def _isomorphisms(A: PermGroup, B: PermGroup):
    """All group isomorphisms A -> B as dicts, by generator-image search."""
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


def count_g_structures(image: PermGroup, G: PermGroup):
    """Number of G-structures on a subgroup `image` of Sym(n): pairs of a
    conjugate G' of G containing image together with a G-conjugacy class of
    isomorphisms G' -> G.  Returns (count, witnesses)."""
    if image.n != G.n:
        raise PermStructError("image and G must sit in the same Sym(n)")
    witnesses = []
    img_els = image.elements
    for conj_els in subgroup_conjugates(G):
        if not img_els <= conj_els:
            continue
        dom = sorted(conj_els)
        Gp = PermGroup(G.n, dom)
        # each isomorphism as its images of dom; its classes under
        # post-composition with inner automorphisms of G, each witnessed by
        # its least member
        isos = sorted(tuple(phi[a] for a in dom)
                      for phi in _isomorphisms(Gp, G))
        for orbit in orbits(isos, G.generators, lambda c, imgs: tuple(
                b.conjugate(c) for b in imgs)):
            witnesses.append((Gp, dict(zip(dom, orbit[0]))))
    return len(witnesses), witnesses


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

def _set_partitions(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def stable_partitions(H: PermGroup):
    """All partitions of {0..n-1} whose blocks are permuted by H, sorted,
    each as a tuple of sorted tuples."""
    if H.n > DEGREE_CAP:
        raise UnsupportedDegree(f"degree {H.n} exceeds cap {DEGREE_CAP}")
    out = []
    for part in _set_partitions(list(range(H.n))):
        blocks = [frozenset(b) for b in part]
        bset = set(blocks)
        if all(frozenset(g(x) for x in b) in bset
               for g in H.generators for b in blocks):
            out.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    out.sort(key=lambda p: (len(p), p))
    return out


def block_sizes(partition) -> tuple:
    return tuple(sorted((len(b) for b in partition), reverse=True))


def in_wreath_product(H: PermGroup, partition) -> bool:
    """Whether H lies in the wreath product S_t wr S_b attached to a
    partition into b blocks of equal size t."""
    bset = {frozenset(b) for b in partition}
    return all(frozenset(g(x) for x in b) in bset
               for g in H.elements for b in bset)


# ---------------------------------------------------------------------------
# torsor structures
# ---------------------------------------------------------------------------

def torsor_structures(image: PermGroup, G: PermGroup):
    """Conjugates of the Cayley-left image of G inside Sym(|G|) that
    centralize `image`, each paired with its centralizer (a conjugate of the
    Cayley-right image containing `image`: the matching G-structure side).
    """
    left, right = cayley_images(G)
    if image.n != left.n:
        raise PermStructError("image must act on the |G| Cayley points")
    img_els = sorted(image.elements)
    out = []
    for conj_els in subgroup_conjugates(left):
        if all(a * b == b * a for a in conj_els for b in img_els):
            Lp = PermGroup(left.n, sorted(conj_els))
            out.append((Lp, centralizer_in_sym(Lp)))
    return out
