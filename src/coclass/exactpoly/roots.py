"""Certified numeric roots via mpmath.

Each root comes back as a ComplexBall: an arbitrary-precision midpoint with
an explicit error radius, certified by the bound
min_i |z - alpha_i| <= n * |f(z)/f'(z)| for simple roots, together with
pairwise disjointness of the balls.  Working precision starts at 128 bits
and doubles until certification succeeds, up to a hard cap of 8192 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .poly import ExactPolyError, RationalPoly, is_squarefree

PRECISION_START = 128
PRECISION_CAP = 8192


class PrecisionExceeded(ExactPolyError):
    pass


@dataclass(frozen=True)
class ComplexBall:
    mid: complex  # mpmath mpc
    radius: object  # mpmath mpf

    def __repr__(self):
        return f"ComplexBall({complex(self.mid)}, r={float(self.radius):.3g})"


def _eval_frac_poly(coeffs, z):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + mp.mpf(c.numerator) / mp.mpf(c.denominator)
    return acc


def numeric_roots(f: RationalPoly, precision_bits: int = 53):
    """All complex roots of squarefree f as pairwise disjoint balls of
    radius <= 2^-precision_bits, closed under conjugation."""
    if f.degree < 1:
        raise ExactPolyError("need degree >= 1")
    if not is_squarefree(f):
        raise ExactPolyError("non-squarefree input: deflate first")
    n = f.degree
    coeffs = f.monic().coeffs
    target = mp.mpf(2) ** (-precision_bits)
    prec = max(PRECISION_START, 2 * precision_bits)
    while prec <= PRECISION_CAP:
        with mp.workprec(prec):
            try:
                rts = mp.polyroots(
                    [mp.mpf(c.numerator) / mp.mpf(c.denominator)
                     for c in reversed(coeffs)],
                    maxsteps=200, extraprec=prec)
            except mp.libmp.libhyper.NoConvergence:
                prec *= 2
                continue
            balls = []
            ok = True
            for z in rts:
                z = mp.mpc(z)
                fz = _eval_frac_poly(coeffs, z)
                fpz = _eval_frac_poly(RationalPoly(coeffs).derivative().coeffs, z)
                if fpz == 0:
                    ok = False
                    break
                cert = n * abs(fz / fpz)
                if cert > target / 16:
                    ok = False
                    break
                balls.append((z, cert))
            if ok and len(balls) > 1:
                sep = min(abs(balls[i][0] - balls[j][0])
                          for i in range(len(balls))
                          for j in range(i + 1, len(balls)))
                # reported radius: nested across precision doublings and
                # pairwise disjoint (centers are within cert of true roots)
                if any(c > sep / 1024 for _, c in balls):
                    ok = False
                radius = min(target, sep / 4)
            else:
                radius = target
            if ok:
                out = [ComplexBall(z, radius) for z, _ in balls]
                out.sort(key=lambda b: (mp.re(b.mid), mp.im(b.mid)))
                return out
        prec *= 2
    raise PrecisionExceeded(f"certification failed below {PRECISION_CAP} bits")


def real_roots(f: RationalPoly, precision_bits: int = 53):
    """Roots certified real: balls meeting the real axis (conjugation-stable
    squarefree input makes this sound at small radius)."""
    return [b for b in numeric_roots(f, precision_bits)
            if abs(mp.im(b.mid)) <= b.radius]
