"""Characteristic polynomials in Q[y]/(f), root-in-extension tests and
compositum factorizations via Trager norms.

For f irreducible of degree n defining K = Q[y]/(f) and h irreducible, the
norm N_lam(x) = Res_y(f(y), h(x - lam*y)) is squarefree for all but finitely
many lam, and then each of its irreducible factors has degree a multiple of
n; those of degree exactly n correspond to the roots of h in K (B. Trager,
"Algebraic factoring and rational function integration", SYMSAC 1976).  The
norm is the certificate of every root found.

The norm is built as a composed sum (Bostan, Flajolet, Salvy & Schost, "Fast
computation of special resultants", J. Symbolic Comput. 41, 2006): its roots
are lam*alpha + beta over the roots alpha of f and beta of h, and scaled by
an integer they are algebraic integers, so power sums and Newton's
identities give its monic integer model in Python ints.

Its degree-n factors come from roots at a split prime (H. Cohen, "A Course
in Computational Algebraic Number Theory", section 4.5), not from factoring
it: at a prime p where f splits into distinct linear factors, the roots A_i
of the scaled f and B_j of the scaled h lie in Z_p, a root r of h in K sends
each A_i to some B_tau(i), and prod_i (x - lam*A_i - B_tau(i)) is an integer
factor of the scaled norm.  The roots are Newton-lifted past a root bound
by `factor._lift_roots`, the lifter that also finds the integer roots of
every polynomial `factor` factors.  The candidates over the maps tau are
read in symmetric residues and kept when they divide the scaled norm
exactly.  If h does not split modulo p it has no root in K.

The map tau of a kept factor also fixes its root r: d*s*r(y/s), d the
discriminant of the scaled f, has integer coefficients and takes the value
d*B_tau(i) at A_i, so it is read by interpolation mod p^k in symmetric
residues and proved by the exact check h(r) = 0 mod f, with no arithmetic
in K[x].  Only `compositum_factors`, and root tests in an f of degree above
`_SPLIT_DEGREE` or with no split prime in `_SPLIT_SCAN` usable primes,
factor the whole norm by Zassenhaus; their roots are not read.

Characteristic polynomials of elements r(y) of Q[y]/(f), and so their norms,
come from the same power sums of f and the same Newton step, applied to the
traces of the powers of r.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .. import InternalError, UnsupportedSize
from . import factor, modp
from .factor import factor_rationals, is_irreducible
from .poly import ExactPolyError, RationalPoly, discriminant, is_squarefree


def _root_scale(*polys: RationalPoly) -> int:
    """lcm of the leading coefficients of the primitive integer forms of the
    polys: times it, every root of each is an algebraic integer."""
    return math.lcm(*(int(h.primitive_int()[1].lc) for h in polys))


def _power_sums(f: RationalPoly, s: int, count: int):
    """Power sums p_0..p_count of s*alpha over the roots alpha of f, by
    Newton's identities on the monic integer polynomial s^m f(x/s)/lc(f)."""
    m = f.degree
    c = [int(a / f.lc * s ** (m - i)) for i, a in enumerate(f.coeffs)]
    p = [m]
    for k in range(1, count + 1):
        acc = k * c[m - k] if k <= m else 0
        for i in range(1, min(k - 1, m) + 1):
            acc += c[m - i] * p[k - i]
        p.append(-acc)
    return p


def _from_power_sums(P):
    """Coefficients, ascending, of the monic polynomial of degree
    N = len(P) - 1 whose roots have power sums P_0..P_N, by Newton's
    identities.  Integral coefficients stay Python ints, so integer power
    sums run in int arithmetic throughout."""
    N = len(P) - 1
    d = [0] * N + [1]
    for k in range(1, N + 1):
        c = Fraction(-sum(d[N - j] * P[k - j] for j in range(k)), k)
        d[N - k] = c.numerator if c.denominator == 1 else c
    return d


def charpoly(r: RationalPoly, f: RationalPoly) -> RationalPoly:
    """prod (x - r(alpha)) over the roots alpha of f, with multiplicity: the
    characteristic polynomial of multiplication by r on Q[y]/(f).  The trace
    of r^k is read off r^k mod f and the power sums of the roots of f."""
    n = f.degree
    s = _root_scale(f)
    ps = [Fraction(P, s ** i) for i, P in enumerate(_power_sums(f, s, n - 1))]
    traces, rk = [n], RationalPoly([1])
    for _ in range(n):
        rk = rk * r % f
        traces.append(sum(c * P for c, P in zip(rk.coeffs, ps)))
    return RationalPoly(_from_power_sums(traces))


def trager_norm(f: RationalPoly, g: RationalPoly, lam: Fraction) -> RationalPoly:
    """Res_y(f(y), g(x - lam*y)) as a polynomial in x, as a composed sum.

    For lam != 0 it is lc(f)^n lc(g)^m prod (x - lam*alpha - beta), m = deg f,
    n = deg g.  With lam = a/b and s = `_root_scale(f, g)`, the roots
    delta = b*s*(lam*alpha + beta) = a*(s*alpha) + b*(s*beta) are algebraic
    integers with power sums P_k = sum_j C(k, j) a^j b^(k-j) s_j(s*alpha)
    s_(k-j)(s*beta), and Newton's identities turn those into the integer
    coefficients of prod (x - delta).  At lam = 0 the norm is g(x)^m."""
    if f.is_zero() or g.is_zero():
        raise ExactPolyError("resultant of zero polynomial")
    lam = Fraction(lam)
    m, n = f.degree, g.degree
    if lam == 0:
        return g ** m
    N = m * n
    a, b = lam.numerator, lam.denominator
    s = _root_scale(f, g)
    ps, qs = _power_sums(f, s, N), _power_sums(g, s, N)
    P = [sum(math.comb(k, j) * a ** j * b ** (k - j) * ps[j] * qs[k - j]
             for j in range(k + 1)) for k in range(N + 1)]
    d = _from_power_sums(P)
    if any(c.denominator != 1 for c in d):
        raise InternalError("internal: composed sum is not integral")
    lead, t = f.lc ** n * g.lc ** m, b * s
    return RationalPoly([lead * c / t ** (N - i) for i, c in enumerate(d)])


def _squarefree_norm(f: RationalPoly, g: RationalPoly):
    """The first lam of 1, -1, 2, -2, ... whose Trager norm is squarefree,
    and that norm: (lam, norm)."""
    for k in range(1, 80):
        lam = Fraction((k + 1) // 2 * (1 if k % 2 else -1))
        norm = trager_norm(f, g, lam)
        if is_squarefree(norm):
            return lam, norm
    raise ExactPolyError("no squarefree Trager norm found")


def _norm_factors(f: RationalPoly, g: RationalPoly):
    """(lam, the monic irreducible factors over Q of the squarefree norm
    N_lam), sorted, from its monic integer model scaled by
    s = `_root_scale(f, g)`."""
    lam, norm = _squarefree_norm(f, g)
    return lam, factor._factor_scaled(norm, _root_scale(f, g))


# Split primes are sought for deg f <= 6, the degree cap of `is_g_torsor`,
# whose fields are Galois: a Galois field of degree d splits at a density of
# 1/d, so _SPLIT_SCAN usable primes all miss with chance under
# (5/6)^200 < 2e-16, and the maps from the roots of f to those of h number
# at most 6! = 720.  Past that, or with no split prime in the scan, the root
# tests factor the whole norm and the roots are out of reach.
_SPLIT_DEGREE = 6
_SPLIT_SCAN = 200


def _interpolate_mod(xs, ys, m):
    """Coefficients, ascending, of the polynomial of degree < len(xs) through
    the points (x_i, y_i) mod m, by Lagrange: the x_i differ by units mod m."""
    out = [0] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, den = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                basis = modp.gf_mul(basis, [-xj % m, 1], m)
                den = den * (xi - xj) % m
        c = yi * pow(den, -1, m) % m
        out = [(o + c * b) % m for o, b in zip(out, basis)]
    return out


def _no_split_prime():
    raise UnsupportedSize(f"roots in Q[y]/(f) need deg f <= {_SPLIT_DEGREE} "
                          f"and a split prime among {_SPLIT_SCAN} usable primes")


def _root_factors(f: RationalPoly, h: RationalPoly):
    """Lazily, (lam, q, root) for each factor q of degree n = deg f of the
    squarefree norm N_lam(h), h monic irreducible with deg h | n: one per
    root of h in K = Q[y]/(f), which root() returns as a reduced polynomial.

    At a split prime p of the scaled f, the roots A_i of the scaled f and B_j
    of the scaled h (both scaled by s = `_root_scale(f, h)`) are lifted past
    the bound on the coefficients of a degree-n factor, whose roots are
    lam*A_i + B_j with |lam*A_i + B_j| <= rho.  A root r of h in K gives the
    map tau with B_tau(i) = s*r at the i-th embedding of K into Q_p, which
    hits every B_j n/deg h times.  Each such map gives the candidate
    prod_i (x - lam*A_i - B_tau(i)), kept if it divides the scaled norm
    exactly: a degree-n divisor of the norm is one of its irreducible
    factors.  If h does not split modulo p it has no root in K: the n
    embeddings would send a root of h to every root of h.

    root() interpolates d*B_tau(i) at the A_i mod p^k, d = disc F, reads
    d*s*r(x/s) in symmetric residues (integral: the index of Z[A] divides d)
    and lifts the roots further until h(r) = 0 mod f holds exactly.  On the
    whole-norm route it raises UnsupportedSize."""
    n, s = f.degree, _root_scale(f, h)
    F, H = factor._scaled_monic(f, s), factor._scaled_monic(h, s)
    split = modp.split_roots(F, H, _SPLIT_SCAN) if n <= _SPLIT_DEGREE else None
    if split is None:
        lam, qs = _norm_factors(f, h)
        yield from ((lam, q, _no_split_prime) for q in qs if q.degree == n)
        return
    p, roots_f, roots_h = split
    if roots_h is None:
        return
    lam, norm = _squarefree_norm(f, h)
    N, k = factor._scaled_monic(norm, s), int(lam)
    rho = abs(k) * factor._root_bound(F) + factor._root_bound(H)
    caps = [math.comb(n, j) * rho ** (n - j) for j in range(n + 1)]
    A, m = factor._lift_roots(F, roots_f, p, 2 * max(caps))
    B, _ = factor._lift_roots(H, roots_h, p, 2 * max(caps))
    lifted = [A, B, m, None]  # roots mod m and disc F, shared by every root()
    left, tau = [n // h.degree] * len(B), []

    def root(images):
        while True:
            A, B, m, d = lifted
            if d is None:
                d = lifted[3] = int(discriminant(RationalPoly(F)))
            D = _interpolate_mod(A, [d * B[j] for j in images], m)
            r = RationalPoly([Fraction(factor._symmetric(c, m) * s ** i, d * s)
                              for i, c in enumerate(D)])
            value = RationalPoly([])
            for c in reversed(h.coeffs):
                value = (value * r + c) % f
            if value.is_zero():
                return r
            lifted[:3] = [factor._lift_roots(F, A, m, m)[0], *factor._lift_roots(H, B, m, m)]

    def extend(i, prod):
        if i == n:
            Q = [factor._symmetric(c, m) for c in prod]
            if all(abs(c) <= cap for c, cap in zip(Q, caps)) \
                    and factor._int_divmod_monic(N, Q)[1] == []:
                q = RationalPoly([Fraction(c, s ** (n - j)) for j, c in enumerate(Q)])
                yield lam, q, partial(root, tuple(tau))
            return
        for j, b in enumerate(B):
            if left[j]:
                left[j] -= 1
                tau.append(j)
                yield from extend(i + 1, modp.gf_mul(prod, [-(k * A[i] + b) % m, 1], m))
                tau.pop()
                left[j] += 1

    yield from extend(0, [1])


def _trager_roots(g: RationalPoly, f: RationalPoly):
    """Each irreducible factor h of g whose degree divides deg f, with a
    lazy iterator over the (lam, q, root) of `_root_factors`, one per root
    of h in Q[y]/(f)."""
    if not is_irreducible(f):
        raise ExactPolyError("extension polynomial must be irreducible")
    factors = factor_rationals(g)
    if any(m > 1 for _, m in factors):
        raise ExactPolyError("g must be squarefree")
    for h, _ in factors:
        if f.degree % h.degree == 0:
            yield h, _root_factors(f, h)


def has_root_in_extension(g: RationalPoly, f: RationalPoly) -> bool:
    """True iff squarefree g has a root in Q[y]/(f), f monic irreducible."""
    if f.degree < 1 or g.degree < 1:
        raise ExactPolyError("need degree >= 1")
    return any(h.degree == 1 or h.monic() == f.monic()
               or next(found, None) is not None
               for h, found in _trager_roots(g, f))


def roots_in_extension(g: RationalPoly, f: RationalPoly):
    """All roots of squarefree g in K = Q[y]/(f), f irreducible, as reduced
    polynomials r(y) with g(r) = 0 mod f, each read from the map tau of its
    norm factor.  UnsupportedSize when g has a root of degree > 1 over Q in
    K and f has no split prime in the scan."""
    roots = []
    for h, found in _trager_roots(g, f):
        if h.degree == 1:
            roots.append(RationalPoly([-h.coeffs[0] / h.coeffs[1]]))
        else:
            roots += (root() for _, _, root in found)
    return sorted(roots, key=lambda r: r.coeffs)


def extension_automorphisms(f: RationalPoly):
    """The automorphisms of K = Q[y]/(f) (f monic irreducible) as reduced
    polynomials h with f(h) = 0 mod f; K is Galois iff there are deg f."""
    return roots_in_extension(f, f)


def compositum_factors(f: RationalPoly, g: RationalPoly):
    """Irreducible factors (min polys over Q) of Q[x]/(f) (x) Q[y]/(g),
    both inputs irreducible."""
    return _norm_factors(g, f)[1]


def fields_isomorphic(f: RationalPoly, g: RationalPoly) -> bool:
    """Isomorphism test for Q[x]/(f) and Q[x]/(g), both irreducible, which
    is not checked: for equal degrees, whether g has a root in Q[x]/(f)."""
    if f.degree != g.degree:
        return False
    if f.degree == 1 or f.monic() == g.monic():
        return True
    return next(_root_factors(f, g.monic()), None) is not None
