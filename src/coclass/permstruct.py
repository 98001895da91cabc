"""Finite permutation-group machinery: subgroups of Sym(n), finite abelian
modules with |Aut M| by formula, homomorphisms from generator images,
centralizers, G-structure counts and stable partitions.

Scope is desk scale: exhaustive enumeration with a hard degree cap of 8
(8! = 40320), no Schreier-Sims.  Permutations are serialized in cycle
notation, groups by generator lists.
"""

from __future__ import annotations

import math
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

    @staticmethod
    def _trusted(images: tuple) -> "Perm":
        """A Perm from images known to be a bijection, left unchecked."""
        p = object.__new__(Perm)
        object.__setattr__(p, "images", images)
        return p

    @property
    def n(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm._trusted(tuple(range(n)))

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
        if len(self.images) != len(other.images):
            raise PermStructError(f"degrees {self.n} and {other.n} differ")
        return Perm._trusted(tuple(self.images[i] for i in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._trusted(tuple(inv))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def order(self) -> int:
        return math.lcm(*self.cycle_type())

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
        gens = dict.fromkeys(generators)  # drops repeats, keeps the order
        if any(g.n != n for g in gens):
            raise PermStructError("generator degree mismatch")
        gens.pop(Perm.identity(n), None)
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


def hom_search(gens, choices, extend, injective=False):
    """Depth-first search for homomorphisms by generator images (Holt, Eick
    & O'Brien, Handbook of CGT, sec. 4.6).  gens[i] takes its image from
    choices[i]; extend(images), for a dict of images of the first gens,
    gives the map on the subgroup they span, or None.  A choice is dropped
    with its continuations when that map is None or, if `injective`, not
    injective.  Yields the maps on the whole group in the order of
    itertools.product over the choices."""
    def search(images):
        h = extend(images)
        if h is None or injective and len(set(h.values())) != len(h):
            return
        if len(images) == len(gens):
            yield h
            return
        g = gens[len(images)]
        for c in choices[len(images)]:
            yield from search({**images, g: c})
    return search({})


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
        return math.prod(self.cyclic_orders)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.cyclic_orders)

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

    def linear_map(self, images):
        """The map sending x to the sum of x_i * images[i], images[i] being
        the image of the i-th cyclic generator, as a dict element ->
        element."""
        out = {(): self.zero()}
        for d, im in zip(self.cyclic_orders, images):
            multiples = [self.smul(c, im) for c in range(d)]
            out = {x + (c,): self.add(acc, m) for x, acc in out.items()
                   for c, m in enumerate(multiples)}
        return out

    def aut_order(self) -> int:
        """|Aut M|, none listed (Hillar & Rhea, Amer. Math. Monthly 114, 2007,
        Thm 4.1): for each p-part Z/p^e_1 x ... x Z/p^e_k, e_i ascending, the
        product over i of (p^d - p^(i-1)) p^(e_i (k-d)) p^((e_i-1)(k-c+1)),
        where d = #{j : e_j <= e_i} and c = #{j : e_j < e_i} + 1."""
        primary = {}
        for d in self.cyclic_orders:
            p = 2
            while d > 1:
                p = p if p * p <= d else d
                e = 0
                while d % p == 0:
                    d, e = d // p, e + 1
                if e:
                    primary.setdefault(p, []).append(e)
                p += 1
        out = 1
        for p, es in primary.items():
            es.sort()
            k = len(es)
            for i, e in enumerate(es, 1):
                d, c = sum(x <= e for x in es), sum(x < e for x in es) + 1
                out *= (p ** d - p ** (i - 1)) * p ** (e * (k - d)) \
                    * p ** ((e - 1) * (k - c + 1))
        return out

    def affine(self, phi: dict, t) -> Perm:
        """The permutation x -> phi(x) + t of the elements in their listed
        order."""
        els = self.elements
        index = {x: i for i, x in enumerate(els)}
        return Perm(tuple(index[self.add(phi[x], t)] for x in els))

    def __repr__(self):
        return f"FiniteAbelian{self.cyclic_orders}"


# ---------------------------------------------------------------------------
# centralizers and conjugates
# ---------------------------------------------------------------------------

def centralizer_in_sym(H: PermGroup) -> PermGroup:
    """The full centralizer of H in Sym(n), n <= 8, by the orbit backtrack
    of `_kernels.perm_centralizer`."""
    if H.n > DEGREE_CAP:
        raise UnsupportedDegree(f"degree {H.n} exceeds cap {DEGREE_CAP}")
    gens = [g.images for g in H.generators]
    cents = _kernels.perm_centralizer(H.n, gens)
    return PermGroup.from_elements(H.n, map(Perm._trusted, cents))


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
    """Greedy small generating set (keeps the image search tractable): the
    elements by decreasing order, each taken when outside the span H of those
    before.  Dimino's step grows H to the union of the cosets H r reached
    from H by right multiplication by generators, so H is never reclosed."""
    els = sorted(group.elements, key=lambda p: (-p.order(), p.images))
    chosen = []
    identity = Perm.identity(group.n)
    span = {identity}
    for e in els:
        if e in span:
            continue
        chosen.append(e)
        old, reps = list(span), [identity]
        for r in reps:  # the list grows while it is read
            for g in chosen:
                x = r * g
                if x not in span:
                    reps.append(x)
                    span.update(h * x for h in old)
        if len(span) == group.order:
            break
    return chosen


def _isomorphisms(A: PermGroup, B: PermGroup):
    """The group isomorphisms A -> B as dicts, yielded one at a time by a
    search over images of a small generating set of A."""
    if A.order != B.order:
        return iter(())
    gens = _small_generating_set(A)
    b_els = sorted(B.elements)
    cand = [[b for b in b_els if b.order() == g.order()] for g in gens]
    one = Perm.identity(B.n)
    return hom_search(gens, cand,
                      lambda images: extend_hom(A.n, images, Perm.__mul__, one),
                      injective=True)


def count_g_structures(image: PermGroup, G: PermGroup) -> int:
    """Number of G-structures on a subgroup `image` of Sym(n): pairs of a
    conjugate G' of G containing image together with a G-conjugacy class of
    isomorphisms G' -> G.

    Each G' has |Aut G| isomorphisms to G, and Inn G acts on them freely by
    post-composition (c_g o phi = phi forces g into Z(G)), so each G' carries
    |Aut G| / |Inn G| = |Aut G| * |Z(G)| / |G| classes, and Aut G is searched
    once."""
    if image.n != G.n:
        raise PermStructError("image and G must sit in the same Sym(n)")
    img_els = image.elements
    conjugates = sum(img_els <= c for c in subgroup_conjugates(G))
    if not conjugates:
        return 0
    center = [z for z in G.elements
              if all(z * g == g * z for g in G.generators)]
    auts = sum(1 for _ in _isomorphisms(G, G))
    return conjugates * auts * len(center) // G.order


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
