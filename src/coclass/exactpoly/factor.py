"""Rational factorization: Yun's squarefree split, then the integer roots
of the monic integer model, then Zassenhaus on a root-free cofactor.

The monic integer model f is squarefree.  Its integer roots come first:
the roots of f mod p at the first prime of `modp._squarefree_at`, read from
values (`modp._roots_by_value`), are Newton-lifted (`_lift_roots`) past
twice a bound on the roots (`_root_bound`).  Each lifted root whose
symmetric residue is an exact root divides f out.  A root-free cofactor of
degree <= 3 is irreducible.  Only one of degree n >= 4 reaches Zassenhaus.
With no linear factor, a proper factor has a degree in [2, n - 2], and that
degree is a sum of factor degrees modulo every usable prime of
`modp.reductions`: the scan keeps the intersection of these subset sums and
answers irreducible, with no Hensel lift, once none is left (H. Cohen, "A
Course in Computational Algebraic Number Theory", section 3.5).  Otherwise
the modular prime is the first with at most two factors mod p, else the one
with the fewest among the first `_MAX_PRIMES`.  Cantor-Zassenhaus splits
that prime's distinct-degree pieces, quadratic Hensel lifting takes them
past the Mignotte bound, and subsets are recombined."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .. import InternalError
from . import modp
from .poly import ExactPolyError, RationalPoly, gcd, proved_squarefree

_MAX_PRIMES = 7


def squarefree_decomposition(f: RationalPoly):
    """Yun's algorithm; returns list of (g_i, i) with f = lc * prod g_i^i.
    An f proved squarefree modulo a prime is its own decomposition."""
    if f.degree < 1:
        raise ExactPolyError("need degree >= 1")
    f = f.monic()
    if proved_squarefree(f):
        return [(f, 1)]
    out = []
    g = gcd(f, f.derivative())
    w = f // g
    i = 1
    while w.degree > 0:
        y = gcd(w, g)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        i += 1
        w, g = y, g // y
    if g.degree > 0:
        # only in characteristic p; cannot happen over Q
        raise InternalError("internal: squarefree decomposition failed")
    return out


def _gf_gcdex(a, b, p):
    """Extended Euclid over GF(p): (s, t, g) with s*a + t*b = g monic."""
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while b:
        q, r = modp.gf_divmod(a, b, p)
        a, b = b, r
        s0, s1 = s1, modp.gf_sub(s0, modp.gf_mul(q, s1, p), p)
        t0, t1 = t1, modp.gf_sub(t0, modp.gf_mul(q, t1, p), p)
    inv = pow(a[-1], p - 2, p)
    norm = lambda u: [c * inv % p for c in u]
    return norm(s0), norm(t0), modp.gf_monic(a, p)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step: from f = g*h (mod m) to (mod m^2).

    f, g, h monic integer polys, s*g + t*h = 1 (mod m).  Returns the
    lifted (g, h, s, t) modulo m^2.
    """
    M = m * m
    mul = lambda a, b: modp.gf_mul(a, b, M)
    sub = lambda a, b: modp.gf_sub(a, b, M)
    add = lambda a, b: modp.gf_add(a, b, M)
    e = sub(modp.gf_from_int_poly(f, M), mul(g, h))
    q, r = modp.gf_divmod(mul(s, e), h, M)
    g1 = add(g, add(mul(t, e), mul(q, g)))
    h1 = add(h, r)
    b = sub(add(mul(s, g1), mul(t, h1)), [1])
    c, d = modp.gf_divmod(mul(s, b), h1, M)
    s1 = sub(s, d)
    t1 = sub(t, add(mul(t, b), mul(c, g1)))
    return g1, h1, s1, t1


def _hensel_pair(f, g, h, p, bound):
    """Lift f = g*h (mod p) until the modulus exceeds `bound`."""
    s, t, d = _gf_gcdex(g, h, p)
    if d != [1]:
        raise InternalError("internal: factors not coprime mod p")
    m = p
    while m < bound:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m = m * m
    return g, h, m


def _hensel_tree(f, factors, p, bound):
    """Lift the full mod-p factorization of monic f past `bound`."""
    if len(factors) == 1:
        m = p
        while m < bound:
            m = m * m
        return [modp.trim([c % m for c in f])]
    k = len(factors) // 2
    left, right = factors[:k], factors[k:]
    g = [1]
    for u in left:
        g = modp.gf_mul(g, u, p)
    h = [1]
    for u in right:
        h = modp.gf_mul(h, u, p)
    g, h, _m = _hensel_pair(f, g, h, p, bound)
    return _hensel_tree(g, left, p, bound) + _hensel_tree(h, right, p, bound)


def _symmetric(c, m):
    c %= m
    return c - m if c > m // 2 else c


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


def _integer_roots(f_int):
    """The integer roots r of the monic squarefree integer polynomial f_int,
    and f_int divided by every x - r.  f_int stays squarefree modulo the
    first prime p of `modp._squarefree_at`, so its roots mod p are simple
    and lift to the p-adic roots; an integer root is one of them, and the
    lift past twice the root bound reads it as a symmetric residue."""
    p, fp = next(modp._squarefree_at(f_int, modp._primes(3)), (None, None))
    if p is None:
        raise ExactPolyError("no usable prime found")
    lifted, m = _lift_roots(f_int, modp._roots_by_value(fp, p), p, 2 * _root_bound(f_int))
    roots, rest = [], f_int
    for a in lifted:
        r = _symmetric(a, m)
        q, rem = _int_divmod_monic(rest, [-r, 1])
        if rem == []:
            roots.append(r)
            rest = q
    return roots, rest


def _factor_monic_int(f_int):
    """Factor a monic squarefree integer polynomial into monic integer
    irreducibles, sorted: its integer roots first, then Zassenhaus on a
    root-free cofactor of degree >= 4."""
    if len(f_int) == 2:
        return [f_int]
    roots, rest = _integer_roots(f_int)
    out = [[-r, 1] for r in roots]
    if len(rest) > 4:
        out += _zassenhaus(rest)
    elif len(rest) > 1:
        out.append(rest)
    out.sort(key=lambda a: (len(a), a))
    return out


def _zassenhaus(f_int):
    """Monic irreducible factors of a monic squarefree integer polynomial of
    degree n >= 4 with no integer root.  The degrees in [2, n - 2] that a
    proper factor may have are kept as a bit mask, intersected with the
    subset sums of the factor degrees modulo each scanned prime."""
    n = len(f_int) - 1
    possible = (1 << (n - 1)) - 4
    best = None
    for usable, (p, pieces) in enumerate(modp.reductions(f_int), 1):
        degrees = modp.factor_degrees(pieces)
        sums = 1
        for d in degrees:
            sums |= sums << d
        possible &= sums
        if not possible:
            return [f_int]
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), p, pieces)
        if len(degrees) <= 2 or usable == _MAX_PRIMES:
            break
    if best is None:
        raise ExactPolyError("no usable prime found")
    _, p, pieces = best
    fac = modp.gf_factor_squarefree(pieces, p)

    # Mignotte-style bound on coefficients of any monic factor
    norm = math.isqrt(sum(c * c for c in f_int)) + 1
    bound = 2 * (2 ** n) * norm + 1
    lifted = _hensel_tree(f_int, fac, p, bound)
    m = p
    while m < bound:
        m = m * m

    result = []
    rest = f_int
    idx = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(idx):
        found = False
        for S in combinations(idx, s):
            cand = [1]
            for i in S:
                cand = modp.gf_mul(cand, lifted[i], m)
            cand = [_symmetric(c, m) for c in cand]
            # cheap test before exact division
            if cand[0] != 0 and rest[0] % cand[0] != 0:
                continue
            q, r = _int_divmod_monic(rest, cand)
            if r is not None and not r:
                result.append(cand)
                rest = q
                idx = [i for i in idx if i not in S]
                found = True
                break
        if not found:
            s += 1
    if len(rest) > 1:
        result.append(rest)
    return result


def _int_divmod_monic(a, b):
    """Division with remainder of integer polys (ascending coefficient
    lists), b monic: (q, r) with a = q*b + r and r trimmed, so r == [] iff b
    divides a; (None, None) when deg a < deg b."""
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return None, None
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    r = modp.trim(a)
    return q, r


def _scaled_monic(f: RationalPoly, s: int):
    """s^N f(x/s) / lc(f) as integer coefficients, ascending; s must make
    every root of f times s an algebraic integer."""
    N = f.degree
    out = [c / f.lc * s ** (N - i) for i, c in enumerate(f.coeffs)]
    if any(c.denominator != 1 for c in out):
        raise InternalError("internal: scaled monic model is not integral")
    return [c.numerator for c in out]


def _factor_scaled(f: RationalPoly, s: int):
    """Monic irreducible factors of a squarefree f over Q, sorted.
    Zassenhaus factors the monic integer model s^N f(x/s) / lc(f), and each
    factor h of degree d maps back to h(s*x)/s^d."""
    out = [RationalPoly([Fraction(c, s ** (len(h) - 1 - i)) for i, c in enumerate(h)])
           for h in _factor_monic_int(_scaled_monic(f, s))]
    return sorted(out, key=lambda h: (h.degree, h.coeffs))


def factor_squarefree(f: RationalPoly):
    """Monic irreducible factors of a squarefree f over Q, scaled by the
    leading coefficient of its primitive integer form."""
    return _factor_scaled(f, int(f.primitive_int()[1].lc))


def factor_rationals(f: RationalPoly):
    """Factor f over Q: list of (monic irreducible RationalPoly, multiplicity),
    sorted; f = lc(f) * product."""
    if f.degree < 1:
        raise ExactPolyError("need degree >= 1")
    out = []
    for g, mult in squarefree_decomposition(f):
        for h in factor_squarefree(g):
            out.append((h, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs, t[1]))
    return out


def is_irreducible(f: RationalPoly) -> bool:
    if f.degree == 1:
        return True
    fac = factor_rationals(f)
    return len(fac) == 1 and fac[0][1] == 1
