"""Closed forms and small exact helpers that the checkers use.

Nothing here imports coclass: every expected answer is computed from the
case's own inputs, so a check does not trust the code it is checking.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def squarefree_part(q) -> int:
    """Signed squarefree integer in the square class of a nonzero rational."""
    q = Fraction(q)
    n = abs(q.numerator * q.denominator)
    out, d = 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return (out * n) * (1 if q > 0 else -1)


def rat_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def is_square(q) -> bool:
    return rat_sqrt(q) is not None


def parse_poly(text: str):
    """Ascending coefficients of a coefficient string such as '7,0,-6,0,1'."""
    return [Fraction(t) for t in text.split(",")]


def poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def algebra_poly(text: str):
    """Product of the factors of an algebra string 'f1|f2|...'."""
    out = [Fraction(1)]
    for part in text.split("|"):
        out = poly_mul(out, parse_poly(part))
    return out


def biquadratic_tag(P, Q) -> str:
    """Galois tag of x^4 + P x^2 + Q: 'reducible', 'V4', 'C4' or 'D4'.

    The quartic factors iff P^2 - 4Q is a square, or Q = s^2 with 2s - P
    or -2s - P a square; an irreducible one is V4 iff Q is a square, C4
    iff Q (P^2 - 4Q) is a square, and D4 otherwise."""
    P, Q = Fraction(P), Fraction(Q)
    delta = P * P - 4 * Q
    if Q == 0 or delta == 0 or is_square(delta):
        return "reducible"
    s = rat_sqrt(Q)
    if s is not None:
        if is_square(2 * s - P) or is_square(-2 * s - P):
            return "reducible"
        return "V4"
    return "C4" if is_square(Q * delta) else "D4"


def c4_quartic(a, c):
    """x^4 - 4c x^2 + (2c^2 - 2a), the C4 codec's quartic, ascending."""
    a, c = Fraction(a), Fraction(c)
    return [2 * c * c - 2 * a, Fraction(0), -4 * c, Fraction(0), Fraction(1)]


def v4_quartic(deltas):
    """x^4 - 2 e1 x^2 - 8x + (e1^2 - 4 e2) for a split V4 datum."""
    d1, d2, d3 = (Fraction(d) for d in deltas)
    e1 = d1 + d2 + d3
    e2 = d1 * d2 + d1 * d3 + d2 * d3
    return [e1 * e1 - 4 * e2, Fraction(-8), -2 * e1, Fraction(0), Fraction(1)]


def quartic_discriminant(f) -> Fraction:
    """Discriminant of a quartic a0 + a1 x + ... + a4 x^4."""
    e, d, c, b, a = (Fraction(t) for t in f)
    return (256 * a**3 * e**3 - 192 * a**2 * b * d * e**2
            - 128 * a**2 * c**2 * e**2 + 144 * a**2 * c * d**2 * e
            - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
            - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e
            + 18 * a * b * c * d**3 + 16 * a * c**4 * e
            - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
            + 18 * b**3 * c * d * e - 4 * b**3 * d**3
            - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2)


def factor_discriminant(f) -> Fraction:
    """Discriminant of a monic factor of degree 1, 2 or 3."""
    f = [Fraction(t) / Fraction(f[-1]) for t in f]
    if len(f) == 2:
        return Fraction(1)
    if len(f) == 3:
        return f[1] * f[1] - 4 * f[0]
    d, c, b = f[0], f[1], f[2]
    return (b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d
            + 18 * b * c * d)


def rescales_to(f, g) -> bool:
    """Whether even quartics f, g (ascending) satisfy g(x) = f(x/l) l^4
    for some rational l, i.e. define the same algebra by x -> l x."""
    if any(t != 0 for t in (f[1], f[3], g[1], g[3])) or f[4] != 1 or g[4] != 1:
        return False
    if f[2] == 0 or g[2] == 0:
        return f[2] == g[2] and f[0] == g[0]
    l2 = g[2] / f[2]
    return is_square(l2) and g[0] == f[0] * l2 * l2


def primes_between(lo: int, hi: int):
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def prime_factors(n: int):
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def euler_legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) by Euler's criterion, p odd, p not | a."""
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


def aut_count(orders) -> int:
    """|Aut M| for M = Z/n1 x ... x Z/nk, by counting the generator images
    that give a bijective endomorphism."""
    els = list(product(*(range(n) for n in orders)))

    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    def times(k, x):
        return tuple((k * a) % n for a, n in zip(x, orders))

    count = 0
    for imgs in product(els, repeat=len(orders)):
        if any(times(n, im) != times(0, im) for n, im in zip(orders, imgs)):
            continue
        image = set()
        for x in els:
            acc = times(0, x)
            for xi, im in zip(x, imgs):
                acc = add(acc, times(xi, im))
            image.add(acc)
        count += len(image) == len(els)
    return count


def centralizer_order(cycle_type) -> int:
    """|C_Sym(n)(s)| = prod i^{m_i} m_i! for s of the given cycle type."""
    out = 1
    for length in set(cycle_type):
        m = cycle_type.count(length)
        out *= length ** m * math.factorial(m)
    return out


def cyclic_gcd_product(n: int, orders, power: int = 1) -> int:
    """prod gcd(n, m_i)^power over the cyclic orders m_i; with power 1 this
    is |M[n]| = |M / nM| for M = Z/m_1 x Z/m_2 x ..."""
    out = 1
    for m in orders:
        out *= math.gcd(n, m) ** power
    return out
