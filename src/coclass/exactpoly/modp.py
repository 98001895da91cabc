"""Dense polynomial arithmetic and factorization over GF(p).

Polynomials are lists of ints in [0, p), ascending degree, trailing zeros
stripped.  Factorization is distinct-degree followed by Cantor-Zassenhaus
equal-degree splitting; the degree pattern alone needs only the first step.
`reductions` is the one scan over primes: it runs distinct-degree
factorization once per usable prime, and its pieces feed both the degree
pattern and the equal-degree split.  `squarefree_mod_prime` runs the same
squarefree test over a few larger primes, as a proof of squarefreeness, and
`split_roots` walks the same scan to a prime at which a polynomial splits
into distinct linear factors.
"""

from __future__ import annotations

import math
import random
from itertools import islice


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def gf_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(len(a)):
        out[i] = a[i]
    for i in range(len(b)):
        out[i] = (out[i] + b[i]) % p
    return trim(out)


def gf_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(len(a)):
        out[i] = a[i]
    for i in range(len(b)):
        out[i] = (out[i] - b[i]) % p
    return trim(out)


def gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim([c % p for c in out])


def gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("gf division by zero")
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], trim(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            qc = c * inv % p
            q[i - db] = qc
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - qc * b[j]) % p
        else:
            a[i] = 0
    return trim(q), trim(a)


def gf_rem(a, b, p):
    return gf_divmod(a, b, p)[1]


def gf_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def gf_gcd(a, b, p):
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_pow_mod(a, n, m, p):
    result = [1]
    a = gf_rem(a, m, p)
    while n:
        if n & 1:
            result = gf_rem(gf_mul(result, a, p), m, p)
        a = gf_rem(gf_mul(a, a, p), m, p)
        n >>= 1
    return result


def gf_deriv(a, p):
    return trim([i * c % p for i, c in enumerate(a)][1:])


def gf_from_int_poly(coeffs, p):
    return trim([c % p for c in coeffs])


def gf_is_squarefree(a, p):
    d = gf_deriv(a, p)
    if not d:
        return False
    return len(gf_gcd(a, d, p)) == 1


def _distinct_degree(f, p):
    """Split monic squarefree f into [(product of irreducibles of degree d, d)]."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_pow_mod(h, p, f, p)
        g = gf_gcd(f, gf_sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = gf_divmod(f, g, p)[0]
            h = gf_rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of monic squarefree f, all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = trim(a)
        if len(a) < 2:
            continue
        g = gf_gcd(f, a, p)
        if len(g) > 1:
            break
        if p == 2:
            t = a
            for _ in range(d * 1 - 1):
                t = gf_add(t, gf_pow_mod(a, 2, f, p), p)
                a = gf_pow_mod(a, 2, f, p)
            g = gf_gcd(f, t, p)
        else:
            b = gf_pow_mod(a, (p ** d - 1) // 2, f, p)
            g = gf_gcd(f, gf_sub(b, [1], p), p)
        if 1 < len(g) < len(f):
            break
    left = _equal_degree(g, d, p, rng)
    right = _equal_degree(gf_divmod(f, g, p)[0], d, p, rng)
    return left + right


def factor_degrees(pieces):
    """Sorted degrees of the irreducible factors, read from the pieces of a
    distinct-degree factorization."""
    return sorted(d for g, d in pieces for _ in range((len(g) - 1) // d))


def _primes(start: int):
    """The odd primes from `start` up to 10000, in increasing order."""
    return (p for p in range(start | 1, 10000, 2) if is_prime(p))


def _squarefree_at(f_int, primes):
    """Yield (p, f_int mod p) for each p of `primes` at which the integer
    polynomial f_int keeps its degree and stays squarefree."""
    n = len(f_int) - 1
    for p in primes:
        fp = gf_from_int_poly(f_int, p)
        if len(fp) - 1 == n and gf_is_squarefree(fp, p):
            yield p, fp


def reductions(f_int):
    """Yield (p, pieces) for the primes 3 <= p < 10000, in increasing order,
    at which the integer polynomial f_int stays squarefree of full degree;
    pieces is the distinct-degree factorization of its monic reduction."""
    for p, fp in _squarefree_at(f_int, _primes(3)):
        yield p, _distinct_degree(gf_monic(fp, p), p)


def squarefree_mod_prime(f_int) -> bool:
    """True if the integer polynomial f_int stays squarefree of full degree
    modulo one of the first three primes above 1000, which proves it
    squarefree over Q; False proves nothing.  Small primes are skipped: they
    often divide the discriminants of scaled Trager norms."""
    return next(_squarefree_at(f_int, islice(_primes(1000), 3)), None) is not None


def _splits(a, p):
    """True iff the monic squarefree a splits into linear factors over GF(p),
    that is iff x^p = x modulo a."""
    return len(a) <= 2 or gf_pow_mod([0, 1], p, a, p) == [0, 1]


def _roots(a, p):
    """The roots in GF(p), ascending, of a monic squarefree a that splits
    into linear factors."""
    return sorted(-u[0] % p for u in gf_factor_squarefree([(a, 1)], p))


def split_roots(f_int, g_int, scan: int):
    """Roots of two monic integer polynomials at the first prime p, among
    the first `scan` of `_squarefree_at(f_int)`, at which f_int splits into
    distinct linear factors and g_int stays squarefree of full degree:
    (p, roots of f_int mod p, roots of g_int mod p), the last None when g_int
    does not split into linear factors mod p.  None when no scanned prime
    qualifies."""
    for p, fp in islice(_squarefree_at(f_int, _primes(3)), scan):
        gp = gf_from_int_poly(g_int, p)
        if _splits(fp, p) and len(gp) == len(g_int) and gf_is_squarefree(gp, p):
            return p, _roots(fp, p), _roots(gp, p) if _splits(gp, p) else None
    return None


def gf_factor_squarefree(pieces, p):
    """Factor a monic squarefree polynomial over GF(p) into monic
    irreducibles, given its distinct-degree pieces."""
    n = sum(len(g) - 1 for g, _ in pieces)
    rng = random.Random(p * 1000003 + n + 1)
    factors = []
    for g, d in pieces:
        factors.extend(_equal_degree(g, d, p, rng))
    factors.sort(key=lambda a: (len(a), a))
    return factors
