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
factor of the scaled norm.  The candidates over the maps tau are read in
symmetric residues modulo a power of p past a root bound and kept when they
divide the scaled norm exactly.  If h does not split modulo p it has no root
in K.  Only `compositum_factors`, an f of degree above `_SPLIT_DEGREE` and
an f with no split prime in `_SPLIT_SCAN` usable primes factor the whole
norm by Zassenhaus.

Characteristic polynomials of elements r(y) of Q[y]/(f), and so their norms,
come from the same power sums of f and the same Newton step, applied to the
traces of the powers of r.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .. import InternalError
from . import factor, modp
from .factor import factor_rationals, is_irreducible
from .poly import ExactPolyError, RationalPoly, is_squarefree


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


# Split primes are sought for deg f <= 4, where the Galois group has order at
# most 24: by Chebotarev at least 1/24 of all primes split f, so _SPLIT_SCAN
# usable primes all miss with chance under (23/24)^200 < 2e-4, and the maps
# from the roots of f to those of h number at most 4! = 24.  Past that, or
# with no split prime in the scan, the whole norm is factored.
_SPLIT_DEGREE = 4
_SPLIT_SCAN = 200


def _root_bound(F) -> int:
    """A power of two bounding the complex roots of the monic integer
    polynomial F in absolute value: Fujiwara's 2 max_k |F_(n-k)|^(1/k), each
    k-th root rounded up to a power of two."""
    n = len(F) - 1
    return 2 << max(-(-abs(F[n - k]).bit_length() // k) for k in range(1, n + 1))


def _lift_roots(F, roots, p: int, bound: int):
    """Newton-lift simple roots of the monic integer F modulo p to a modulus
    m = p^(2^t) > bound: (roots mod m, m)."""
    dF = [i * c for i, c in enumerate(F)][1:]

    def at(P, a, m):
        acc = 0
        for c in reversed(P):
            acc = (acc * a + c) % m
        return acc

    m = p
    while m <= bound:
        m *= m
        roots = [(a - at(F, a, m) * pow(at(dF, a, m), -1, m)) % m for a in roots]
    return roots, m


def _root_factors(f: RationalPoly, h: RationalPoly):
    """Lazily, (lam, q) for each factor q of degree n = deg f of the
    squarefree norm N_lam(h), h irreducible with deg h | n: one per root of
    h in K = Q[y]/(f).

    At a split prime p of the scaled f, the roots A_i of the scaled f and B_j
    of the scaled h (both scaled by s = `_root_scale(f, h)`) are lifted past
    the bound on the coefficients of a degree-n factor, whose roots are
    lam*A_i + B_j with |lam*A_i + B_j| <= rho.  A root r of h in K gives the
    map tau with B_tau(i) = s*r at the i-th embedding of K into Q_p, which
    hits every B_j n/deg h times.  Each such map gives the candidate
    prod_i (x - lam*A_i - B_tau(i)), kept if it divides the scaled norm
    exactly: a degree-n divisor of the norm is one of its irreducible
    factors.  If h does not split modulo p it has no root in K: the n
    embeddings would send a root of h to every root of h."""
    n, s = f.degree, _root_scale(f, h)
    F, H = factor._scaled_monic(f, s), factor._scaled_monic(h, s)
    split = modp.split_roots(F, H, _SPLIT_SCAN) if n <= _SPLIT_DEGREE else None
    if split is None:
        lam, qs = _norm_factors(f, h)
        yield from ((lam, q) for q in qs if q.degree == n)
        return
    p, roots_f, roots_h = split
    if roots_h is None:
        return
    lam, norm = _squarefree_norm(f, h)
    N, k = factor._scaled_monic(norm, s), int(lam)
    rho = abs(k) * _root_bound(F) + _root_bound(H)
    caps = [math.comb(n, j) * rho ** (n - j) for j in range(n + 1)]
    A, m = _lift_roots(F, roots_f, p, 2 * max(caps))
    B, _ = _lift_roots(H, roots_h, p, 2 * max(caps))
    left = [n // h.degree] * len(B)

    def extend(i, prod):
        if i == n:
            Q = [factor._symmetric(c, m) for c in prod]
            if all(abs(c) <= cap for c, cap in zip(Q, caps)) \
                    and factor._int_divmod_monic(N, Q)[1] == []:
                yield lam, RationalPoly([Fraction(c, s ** (n - j)) for j, c in enumerate(Q)])
            return
        for j, b in enumerate(B):
            if left[j]:
                left[j] -= 1
                yield from extend(i + 1, modp.gf_mul(prod, [-(k * A[i] + b) % m, 1], m))
                left[j] += 1

    yield from extend(0, [1])


def _trager_roots(g: RationalPoly, f: RationalPoly):
    """Each irreducible factor h of g whose degree divides deg f, with a
    lazy iterator over the (lam, q), q a factor of degree deg f of the
    squarefree norm N_lam(h), one per root of h in Q[y]/(f)."""
    if not is_irreducible(f):
        raise ExactPolyError("extension polynomial must be irreducible")
    if not is_squarefree(g):
        raise ExactPolyError("g must be squarefree")
    for h, _ in factor_rationals(g):
        if f.degree % h.degree == 0:
            yield h, _root_factors(f, h)


def has_root_in_extension(g: RationalPoly, f: RationalPoly) -> bool:
    """True iff squarefree g has a root in Q[y]/(f), f monic irreducible."""
    if f.degree < 1 or g.degree < 1:
        raise ExactPolyError("need degree >= 1")
    return any(h.degree == 1 or h.monic() == f.monic()
               or next(found, None) is not None
               for h, found in _trager_roots(g, f))


# ---------------------------------------------------------------------------
# quotient-ring arithmetic over K = Q[y]/(f) and explicit root extraction
# ---------------------------------------------------------------------------

def _k_inv(a: RationalPoly, f: RationalPoly) -> RationalPoly:
    """Inverse of a in Q[y]/(f), f irreducible, a nonzero mod f."""
    r0, r1 = f, a % f
    s0, s1 = RationalPoly([]), RationalPoly([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ExactPolyError("element not invertible mod f")
    return (s0 * RationalPoly([1 / r0.coeffs[0]])) % f


def _kp_trim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _kp_mul(a, b, f):
    if not a or not b:
        return []
    out = [RationalPoly([]) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _kp_trim([c % f for c in out])


def _kp_divmod(a, b, f):
    """Division of K-coefficient polynomials, b nonzero."""
    a = list(a)
    db = len(b) - 1
    inv_lc = _k_inv(b[-1], f)
    q = [RationalPoly([]) for _ in range(max(0, len(a) - db))]
    while len(a) - 1 >= db and _kp_trim(a):
        if not a:
            break
        c = (a[-1] * inv_lc) % f
        deg = len(a) - 1 - db
        q[deg] = q[deg] + c
        for j in range(db + 1):
            a[deg + j] = (a[deg + j] - c * b[j]) % f
        a.pop()
    return q, _kp_trim(a)


def _kp_gcd(a, b, f):
    a, b = _kp_trim(list(a)), _kp_trim(list(b))
    while b:
        _, r = _kp_divmod(a, b, f)
        a, b = b, r
    if a:
        inv = _k_inv(a[-1], f)
        a = [(c * inv) % f for c in a]
    return a


def roots_in_extension(g: RationalPoly, f: RationalPoly):
    """All roots of squarefree g in K = Q[y]/(f), f monic irreducible, as
    reduced polynomials h(y) with g(h) = 0 mod f (Trager factorization)."""
    roots = []
    for h, found in _trager_roots(g, f):
        if h.degree == 1:
            roots.append(RationalPoly([-h.coeffs[0] / h.coeffs[1]]))
            continue
        for lam, q in found:
            # K-gcd of h(x) and q(x + lam*theta) is linear: x - root
            hk = [RationalPoly([c]) for c in h.coeffs]
            theta = RationalPoly([0, 1])
            shift = [(lam * theta) % f, RationalPoly([1])]
            qk = [RationalPoly([])]
            for c in reversed(q.coeffs):
                qk = _kp_mul(qk, shift, f)
                if not qk:
                    qk = [RationalPoly([c]) % f]
                else:
                    qk[0] = (qk[0] + RationalPoly([c])) % f
                    qk = _kp_trim(qk)
            w = _kp_gcd(hk, qk, f)
            if len(w) == 2:
                roots.append((-w[0]) % f)
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
    """Isomorphism test for Q[x]/(f) and Q[x]/(g), both irreducible."""
    if f.degree != g.degree:
        return False
    if f.monic() == g.monic():
        return True
    return has_root_in_extension(g, f)
