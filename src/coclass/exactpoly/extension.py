"""Root-in-extension tests and compositum factorizations via Trager norms.

For f irreducible defining K = Q[y]/(f) and g squarefree, the norm
N_lam(x) = Res_y(f(y), g(x - lam*y)) has, for generic lam, squarefree
value whose irreducible factors of degree deg(f) correspond exactly to the
linear factors of g over K.
"""

from __future__ import annotations

from fractions import Fraction

from .factor import factor_rationals, factor_squarefree, is_irreducible
from .poly import ExactPolyError, RationalPoly, is_squarefree, resultant


def trager_norm(f: RationalPoly, g: RationalPoly, lam: Fraction) -> RationalPoly:
    """Res_y(f(y), g(x - lam*y)) as a polynomial in x, by interpolation."""
    n = f.degree * g.degree
    lam = Fraction(lam)
    xs, ys = [], []
    x0 = 0
    while len(xs) < n + 1:
        shifted = _eval_shift(g, x0, lam)
        if shifted.degree == g.degree:
            xs.append(Fraction(x0))
            ys.append(resultant(f, shifted))
        x0 = -x0 + (0 if x0 > 0 else 1)  # 0, 1, -1, 2, -2, ...
    return interpolate(xs, ys)


def _eval_shift(g: RationalPoly, x0, lam) -> RationalPoly:
    """g(x0 - lam*y) as a polynomial in y."""
    base = RationalPoly([Fraction(x0), -Fraction(lam)])
    return g.compose(base)


def interpolate(xs, ys) -> RationalPoly:
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]),
    xs distinct: Newton divided differences, then the Newton form expanded
    by Horner's rule, O(n^2) field operations."""
    c = [Fraction(y) for y in ys]
    n = len(c)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    out = []
    for k in range(n - 1, -1, -1):
        # out <- out * (x - xs[k]) + c[k]
        shifted = [Fraction(0)] + out
        for i, a in enumerate(out):
            shifted[i] -= xs[k] * a
        shifted[0] += c[k]
        out = shifted
    return RationalPoly(out)


def _squarefree_norm(f: RationalPoly, g: RationalPoly):
    """Find lam with squarefree Trager norm; returns (lam, norm)."""
    for k in range(1, 80):
        lam = Fraction((k + 1) // 2 * (1 if k % 2 else -1))
        norm = trager_norm(f, g, lam)
        if norm.degree == f.degree * g.degree and is_squarefree(norm):
            return lam, norm
    raise ExactPolyError("no squarefree Trager norm found")


def _trager_roots(g: RationalPoly, f: RationalPoly):
    """Each irreducible factor h of g whose degree divides deg f, with a
    lazy iterator over the (lam, q), q a factor of degree deg f of the
    squarefree norm N_lam(h), one per root of h in Q[y]/(f)."""
    if not is_irreducible(f):
        raise ExactPolyError("extension polynomial must be irreducible")
    if not is_squarefree(g):
        raise ExactPolyError("g must be squarefree")
    n = f.degree

    def norm_factors(h):
        lam, norm = _squarefree_norm(f, h)
        for q in factor_squarefree(norm):
            if q.degree == n:
                yield lam, q

    for h, _ in factor_rationals(g):
        if n % h.degree == 0:
            yield h, norm_factors(h)


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
    _, norm = _squarefree_norm(g, f)
    return factor_squarefree(norm)


def fields_isomorphic(f: RationalPoly, g: RationalPoly) -> bool:
    """Isomorphism test for Q[x]/(f) and Q[x]/(g), both irreducible."""
    if f.degree != g.degree:
        return False
    if f.monic() == g.monic():
        return True
    return has_root_in_extension(g, f)
