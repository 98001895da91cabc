"""The two brute-force kernels: the centralizer scan of Sym(n) behind
`permstruct.centralizer_in_sym`, and the conic point search mod p^k that
`localsym.conic_has_point` uses as an oracle independent of the
Hilbert-symbol formula.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

# The benchmark harness records this in every result file.
BACKEND = "pure"

# Most entries of one block of sums in `conic_search`.
_BLOCK = 1 << 20


def perm_centralizer(n: int, gens):
    """All permutations of {0..n-1} commuting with every generator.

    Permutations are tuples of images; scans all n! elements.
    """
    gens = [tuple(g) for g in gens]
    out = []
    for q in permutations(range(n)):
        ok = True
        for g in gens:
            for i in range(n):
                if q[g[i]] != g[q[i]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(q)
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
