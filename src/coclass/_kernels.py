"""The two kernels: the centralizer search in Sym(n) behind
`permstruct.centralizer_in_sym`, a backtrack over one point per orbit, and
the brute-force conic point search mod p^k that `localsym.conic_has_point`
uses as an oracle independent of the Hilbert-symbol formula.

The conic search tests its sums a small block at a time and stops at the
first square: most conics have a point, and the first block almost always
holds one, so only the conics without a point pay for a full scan.
"""

from __future__ import annotations

import numpy as np

# The benchmark harness records this in every result file.
BACKEND = "pure"

# Most entries of one block of sums in `conic_search`. Small, so that a
# conic with a point stops after one block instead of filling the whole
# table of sums (about a million at p = 13) before testing any of them.
_BLOCK = 1 << 12


def perm_centralizer(n: int, gens):
    """All permutations of {0..n-1} commuting with every generator, as
    tuples of images, in lexicographic order.

    A backtrack over one representative x per orbit of H = <gens> (Holt,
    Eick & O'Brien, Handbook of CGT, sec. 4.6; Dixon & Mortimer, Thm 4.2A):
    a centralizing q is fixed on the orbit of x by q(x), since
    q(g z) = g q(z), and maps it onto an orbit of the same size.  Each free
    point y is tried as q(x) and q is extended along the orbit; the choice
    is dropped at the first clash or repeated image, so the search reaches
    |C| leaves, not n!.
    """
    from . import permstruct  # here, since permstruct imports this module

    gens = [tuple(g) for g in gens]
    orbits = permstruct.orbits(range(n), gens, lambda g, x: g[x])
    orbit_size = [0] * n
    for orbit in orbits:
        for z in orbit:
            orbit_size[z] = len(orbit)
    q = [None] * n
    used = [False] * n
    out = []

    def extend(orbit, y):
        """Set q on the orbit from q(orbit[0]) = y; False at a clash."""
        q[orbit[0]] = y
        used[y] = True
        for z in orbit:  # each point is reached from an earlier one
            for g in gens:
                w, v = g[z], g[q[z]]
                if q[w] is None:
                    if used[v]:
                        return False
                    q[w] = v
                    used[v] = True
                elif q[w] != v:
                    return False
        return True

    def search(k):
        if k == len(orbits):
            out.append(tuple(q))
            return
        orbit = orbits[k]
        for y in range(n):
            if used[y] or orbit_size[y] != len(orbit):
                continue
            if extend(orbit, y):
                search(k + 1)
            for z in orbit:
                if q[z] is not None:
                    used[q[z]] = False
                    q[z] = None

    search(0)
    return out


def conic_search(a: int, b: int, p: int, k: int) -> bool:
    """Whether a*x^2 + b*y^2 = z^2 has a primitive solution mod p^k.

    Primitive means (x, y) not both divisible by p (a solution with
    x = y = 0 mod p cannot have a unit z when k >= 2).
    """
    m = p ** k
    zs = np.arange(m, dtype=np.int64)
    squares = zs * zs % m
    is_sq = np.zeros(m, dtype=bool)
    is_sq[squares] = True
    xs = (a % m) * squares % m
    ys = (b % m) * squares % m
    unit = (zs % p) != 0
    # x unit and any y, or x divisible by p and y unit
    return (_some_sum_square(xs[unit], ys, is_sq, m)
            or _some_sum_square(xs[~unit], ys[unit], is_sq, m))


def _some_sum_square(xs, ys, is_sq, m: int) -> bool:
    """Whether some x + y (mod m) is a square, over the distinct values of
    xs and ys, testing at most _BLOCK sums at a time."""
    xs, ys = np.unique(xs), np.unique(ys)
    rows = max(1, _BLOCK // len(ys))
    for start in range(0, len(xs), rows):
        if is_sq[(xs[start:start + rows, None] + ys[None, :]) % m].any():
            return True
    return False
