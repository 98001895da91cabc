"""The four workloads: seeded inputs, the computation of one case, and its
check.

A workload builds its inputs as rounds, each a list of Case records. A
round always has the same make-up of case kinds, so every run that does
whole rounds has the same mix of cheap and costly cases and the same share
of known failures. `compute` runs the program on one case and returns its
output; `check` compares that output with closed forms from oracles.py
and returns None when it is right, or the reason it is wrong.

coclass is imported lazily, after run.py has checked where it resolves.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles as O

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Case:
    kind: str
    inp: tuple
    label: str
    # substring of the failure reason when this input hits a known fault
    known_fault: str | None = None


def case_failure(workload, case):
    """Run one case; None if its output checks out, else the reason."""
    try:
        out = workload.compute(case)
    except Exception as exc:  # a raising case is a failed case, not a crash
        return f"{type(exc).__name__}: {exc}"
    return workload.check(case, out)


def _fmt(q) -> str:
    return str(Fraction(q))


# ---------------------------------------------------------------------------
# shared seeded draws
# ---------------------------------------------------------------------------

C4_TWISTS = (1, 2, 3, 5, 6, 7, 10, 14, -2, -3, -5, -7)


def draw_c4(rng):
    """A C4 datum (D, a, b, c) with alpha = (c^2 / N(beta)) beta^2 whose
    quartic is an irreducible C4 or D4 quartic."""
    while True:
        D = rng.choice(C4_TWISTS)
        u = rng.choice((1, -1)) * rng.randint(1, 4)
        v = rng.choice((1, -1)) * rng.randint(1, 3)
        n = u * u + D * v * v
        if n == 0:
            continue
        c = Fraction(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))
        k = c * c / n
        a, b = k * (u * u - D * v * v), k * 2 * u * v
        if O.biquadratic_tag(-4 * c, 2 * c * c - 2 * a) in ("C4", "D4"):
            return D, a, b, c


SMALL_RATIONALS = [Fraction(s * n, d) for s in (1, -1) for n in (1, 2, 3, 5, 6, 7)
                   for d in (1, 2, 3)]


def draw_v4(rng, separable_only=False):
    """Split-R V4 datum (d1, d2, 1/(d1 d2))."""
    while True:
        d1, d2 = rng.choice(SMALL_RATIONALS), rng.choice(SMALL_RATIONALS)
        deltas = (d1, d2, 1 / (d1 * d2))
        if deltas == (1, 1, 1):
            continue
        if separable_only and O.quartic_discriminant(O.v4_quartic(deltas)) == 0:
            continue
        return deltas


def draw_c3(rng):
    """C3 datum (D, d, x, y): delta = z / conj(z) in Q[sqrt(d)], d = -3D."""
    while True:
        D = rng.choice((1, 2, 3, 5, -1, -2, 6, 7, 10))
        d = O.squarefree_part(-3 * D)
        z = (Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 6), rng.randint(1, 6)))
        nz = z[0] * z[0] - d * z[1] * z[1]
        if nz == 0:
            continue
        # z / conj(z) = z^2 / N(z)
        x = (z[0] * z[0] + d * z[1] * z[1]) / nz
        y = 2 * z[0] * z[1] / nz
        return D, d, x, y


def draw_biquadratic(rng, tags):
    """(P, Q) with x^4 + P x^2 + Q irreducible of a tag in `tags`."""
    while True:
        P = rng.choice((1, -1)) * rng.randint(1, 12)
        Q = rng.choice((1, -1)) * rng.randint(1, 40)
        if O.biquadratic_tag(P, Q) in tags:
            return P, Q


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

HOL_MODULES = ([2], [3], [4], [5], [6], [7], [8], [9], [2, 2], [2, 4], [3, 3])
MU3_PRIMES = [p for p in O.primes_between(7, 97) if p % 3 == 1]
ODD_PRIMES = O.primes_between(3, 47)


class CliOneshot:
    """One cold `python -m coclass.cli ...` child per case."""

    name = "cli-oneshot"
    imports = ()

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.env = env
        self.peak_child_kb = 0

    def make_round(self, rng):
        P, Q = draw_biquadratic(rng, ("V4", "C4", "D4"))
        mP, mQ = draw_biquadratic(rng, ("C4", "D4"))
        enc = draw_c4(rng)
        dec = draw_c4(rng)
        deltas = draw_v4(rng, separable_only=True)
        p = rng.choice(ODD_PRIMES)
        a = rng.choice([t for t in range(2, 200) if t % p])
        return [
            Case("etale-info", ("etale", "info", "--f", f"{_fmt(Q)},0,{_fmt(P)},0,1"),
                 f"etale info x^4{P:+}x^2{Q:+}"),
            Case("etale-mirror", ("etale", "mirror", "--f", f"{_fmt(mQ)},0,{_fmt(mP)},0,1"),
                 f"etale mirror x^4{mP:+}x^2{mQ:+}"),
            Case("h1-c4-encode", ("h1", "c4", "encode", "--D", str(enc[0]), "--a", _fmt(enc[1]),
                                  "--b", _fmt(enc[2]), "--c", _fmt(enc[3])),
                 f"h1 c4 encode {enc}"),
            Case("h1-c4-decode", ("h1", "c4", "decode", "--f",
                                  ",".join(_fmt(t) for t in O.c4_quartic(dec[1], dec[3]))),
                 f"h1 c4 decode of {dec}"),
            Case("h1-v4-encode", ("h1", "v4", "encode", "--R", "0,1|0,1|0,1", "--delta",
                                  "|".join(_fmt(d) for d in deltas)),
                 f"h1 v4 encode {deltas}"),
            Case("local-hilbert", ("local", "hilbert", "--p", str(p), "--a", str(a),
                                   "--b", str(p)), f"local hilbert ({a},{p})_{p}"),
            Case("local-h1", ("local", "h1", "--p", str(rng.choice(MU3_PRIMES)),
                              "--module", "mu3"), "local h1 mu3"),
            Case("group-hol", ("group", "hol", "--orders",
                               ",".join(map(str, rng.choice(HOL_MODULES)))), "group hol"),
            Case("coh-hol-h1", ("coh", "hol-h1", "--n", "2", "--gens", "(0 1)", "--orders",
                                str(rng.randint(2, 8))), "coh hol-h1 C2"),
        ]

    def compute(self, case):
        proc = subprocess.Popen([sys.executable, "-m", "coclass.cli", *case.inp],
                                cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            raw = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return {"code": proc.returncode, "payload": json.loads(raw)}

    def check(self, case, out):
        pay = out["payload"]
        if out["code"] != 0 or pay.get("status") != "ok":
            return f"exit {out['code']}: {pay.get('diagnostics')}"
        kind, args = case.kind, dict(zip(case.inp[2::2], case.inp[3::2]))
        if case.inp[0] == "h1":
            args = dict(zip(case.inp[3::2], case.inp[4::2]))
        if kind == "etale-info":
            f = O.parse_poly(args["--f"])
            P, Q = f[2], f[0]
            if pay["disc_class"] != O.squarefree_part(Q):
                return "disc class"
            if pay["h0"] != 0:
                return "rational roots"
            if pay["galois_tag"] != O.biquadratic_tag(P, Q):
                return "galois tag"
            return None
        if kind == "etale-mirror":
            f = O.parse_poly(args["--f"])
            P, Q = f[2], f[0]
            want = [P * P - 4 * Q, Fraction(0), 2 * P, Fraction(0), Fraction(1)]
            got = O.algebra_poly(pay["algebra"])
            return None if O.rescales_to(want, got) else "mirror quartic"
        if kind == "h1-c4-encode":
            want = O.c4_quartic(Fraction(args["--a"]), Fraction(args["--c"]))
            return None if O.algebra_poly(pay["algebra"]) == want else "c4 quartic"
        if kind == "h1-c4-decode":
            f = O.parse_poly(args["--f"])
            d = pay["datum"]
            D, a, b, c = d["D"], Fraction(d["a"]), Fraction(d["b"]), Fraction(d["c"])
            if a * a + D * b * b != c ** 4:
                return "decoded datum has N(alpha) != c^4"
            # c^4 - a^2 = D b^2 and c^4 - a^2 = Q (P^2 - 4Q) / 16
            if D != O.squarefree_part(f[0] * (f[2] ** 2 - 4 * f[0])):
                return "decoded twist"
            return None if O.rescales_to(f, O.c4_quartic(a, c)) else "decode does not invert encode"
        if kind == "h1-v4-encode":
            deltas = [Fraction(t) for t in args["--delta"].split("|")]
            want = O.v4_quartic(deltas)
            return None if O.algebra_poly(pay["algebra"]) == want else "v4 quartic"
        if kind == "local-hilbert":
            p, a = int(args["--p"]), int(args["--a"])
            want = "+1" if O.euler_legendre(a, p) == 1 else "-1"
            return None if pay["value"] == want else "hilbert symbol"
        if kind == "local-h1":
            ok = pay["count"] == 9 and len(set(pay["classes"])) == 9
            return None if ok else "|Q_p*/Q_p*^3| != 9"
        if kind == "group-hol":
            orders = [int(t) for t in args["--orders"].split(",")]
            m = math.prod(orders)
            ok = (pay["order"] == m * O.aut_count(orders) and pay["degree"] == m
                  and pay["is_symmetric"] == (pay["order"] == math.factorial(m)))
            return None if ok else "|Hol M| != |M| |Aut M|"
        if kind == "coh-hol-h1":
            want = math.gcd(2, int(args["--orders"]))
            ok = pay["order"] == want and pay["classes"] == want and pay["bijection"] is True
            return None if ok else "|H^1(C2, Z/m)| or bijection"
        return f"unknown kind {kind}"


# ---------------------------------------------------------------------------
# codec-roundtrip
# ---------------------------------------------------------------------------

# Galois tags of the subgroups of each module's Hol M image, as the
# program writes them (intransitive algebras join the factor tags).
ALLOWED_TAGS = {
    "c3": {"S3", "C3", "C2+C1", "C1+C1+C1"},
    "v4": {"V4", "C2+C2", "C1+C1+C1+C1"},
    "c4": {"D4", "C4", "V4", "C2+C2", "C2+C1+C1", "C1+C1+C1+C1"},
}

# Two C4 inputs that fail on every run because of codec faults:
#  * a datum encoding to a product of two distinct quadratic fields decodes
#    to a = c^2, b = 0, which re-encodes to the split algebra;
#  * an irreducible quartic with a V4 tag makes c4_decode raise.
KNOWN_FAULTS = [
    Case("c4", (5, Fraction(-1, 9), Fraction(4, 9), Fraction(1)),
         "c4 D=5 a=-1/9 b=4/9 c=1 (encodes to -10/3,0,1|-2/3,0,1)",
         known_fault="re-encode not isomorphic"),
    Case("c4", (-3, Fraction(-28), Fraction(-16), Fraction(2)),
         "c4 D=-3 a=-28 b=-16 c=2 (encodes to 64,0,-8,0,1)",
         known_fault="irreducible quartic gave b = 0"),
]

# Kinds per round, with the 2 known-fault inputs: 27 cases. Sorted by cost,
# c3 (~5 ms) and the raising fault case take ranks 0-37 %; about half the
# c4 cases take 15-40 ms (ranks 37-62 %, centred on the median), the rest
# 150-270 ms, like most v4 cases (ranks 62-100 %, holding p90).
CODEC_ROUND = {"c3": 9, "c4": 10, "v4": 6}


class CodecRoundtrip:
    name = "codec-roundtrip"
    imports = ("coclass.etalealg", "coclass.kummerh1")

    def make_round(self, rng):
        cases = list(KNOWN_FAULTS)
        for _ in range(CODEC_ROUND["c3"]):
            D, d, x, y = draw_c3(rng)
            cases.append(Case("c3", (D, d, x, y), f"c3 D={D} delta={_fmt(x)}+{_fmt(y)}*sqrt({d})"))
        for _ in range(CODEC_ROUND["c4"]):
            D, a, b, c = draw_c4(rng)
            cases.append(Case("c4", (D, a, b, c), f"c4 D={D} a={_fmt(a)} b={_fmt(b)} c={_fmt(c)}"))
        for _ in range(CODEC_ROUND["v4"]):
            deltas = draw_v4(rng)
            cases.append(Case("v4", deltas, "v4 delta=" + "|".join(map(_fmt, deltas))))
        rng.shuffle(cases)
        return cases

    def compute(self, case):
        from coclass import etalealg, kummerh1
        from coclass.etalealg import EtaleAlgebra
        from coclass.kummerh1 import CoclassC3, CoclassC4, CoclassV4, QuadElem

        if case.kind == "c3":
            D, d, x, y = case.inp
            L = kummerh1.c3_encode(CoclassC3(D, QuadElem.of(d, x, y)))
            tag = etalealg.galois_group(L)
            back, _ = kummerh1.c3_decode(L)
            L2 = kummerh1.c3_encode(back)
        elif case.kind == "c4":
            L = kummerh1.c4_encode(CoclassC4(*case.inp))
            tag = etalealg.galois_group(L)
            L2 = kummerh1.c4_encode(kummerh1.c4_decode(L))
        else:
            R = EtaleAlgebra.from_text("0,1|0,1|0,1")
            L = kummerh1.v4_encode(CoclassV4(R, case.inp))
            tag = etalealg.galois_group(L)
            L2 = kummerh1.v4_encode(kummerh1.v4_decode(L))
        return {"algebra": L.to_text(), "tag": tag, "isomorphic": L2.isomorphic(L)}

    def check(self, case, out):
        if not out["isomorphic"]:
            return "re-encode not isomorphic"
        if out["tag"] not in ALLOWED_TAGS[case.kind]:
            return f"tag {out['tag']} outside Hol M"
        factors = [O.parse_poly(t) for t in out["algebra"].split("|")]
        if case.kind == "c3":
            disc = Fraction(1)
            for f in factors:
                disc *= O.factor_discriminant(f)
            if O.squarefree_part(disc) != case.inp[0]:
                return "quadratic resolvent != D"
        if case.kind == "c4":
            _, a, _, c = case.inp
            f = O.c4_quartic(a, c)
            want = O.biquadratic_tag(f[2], f[0])
            if want != "reducible" and (factors != [f] or out["tag"] != want):
                return f"tag {out['tag']} != closed form {want}"
        return None


# ---------------------------------------------------------------------------
# group-cohomology
# ---------------------------------------------------------------------------

GROUPS = {
    "C2": (2, ["(0 1)"]), "C3": (3, ["(0 1 2)"]), "C4": (4, ["(0 1 2 3)"]),
    "V4": (4, ["(0 1)(2 3)", "(0 2)(1 3)"]), "C5": (5, ["(0 1 2 3 4)"]),
    "S3": (3, ["(0 1 2)", "(0 1)"]), "C6": (6, ["(0 1 2 3 4 5)"]),
}

# (|H^1|, |H^2|) for a trivial action on M = (+) Z/m_i: |H^1| =
# |Hom(G^ab, M)|; |H^2| = |M/nM| for C_n, prod gcd(2, m_i)^3 for V4 and
# |M/2M| for S3 (whose Schur multiplier is trivial).
TRIVIAL_H = {
    "C3": lambda M: (O.cyclic_gcd_product(3, M), O.cyclic_gcd_product(3, M)),
    "C4": lambda M: (O.cyclic_gcd_product(4, M), O.cyclic_gcd_product(4, M)),
    "C5": lambda M: (O.cyclic_gcd_product(5, M), O.cyclic_gcd_product(5, M)),
    "C6": lambda M: (O.cyclic_gcd_product(6, M), O.cyclic_gcd_product(6, M)),
    "V4": lambda M: (O.cyclic_gcd_product(2, M, 2), O.cyclic_gcd_product(2, M, 3)),
    "S3": lambda M: (O.cyclic_gcd_product(2, M), O.cyclic_gcd_product(2, M)),
}

# The fixed catalogue of trivial actions. S3 and C6 on (Z/2)^2 are left
# out: their H^2 takes about 4 s each, longer than the rest of a round.
TRIVIAL_CATALOGUE = (
    [("C3", M) for M in ([2], [3], [4], [2, 2])]
    + [("C4", M) for M in ([2], [4], [2, 2])]
    + [("V4", M) for M in ([2], [3], [4], [2, 2])]
    + [("C5", M) for M in ([2], [3], [4], [2, 2])]
    + [("S3", M) for M in ([2], [3], [4])]
    + [("C6", M) for M in ([2], [3], [4])])

# Cycle types of the centralizer cases in Sym(8) and Sym(7), one case each
# per round; the seed picks the permutation of each type. The centralizers
# stay small, because the program lists every element as a generator.
CYCLE_TYPES = [(8,), (7, 1), (6, 2), (5, 3), (4, 4), (3, 3, 2), (7,), (4, 3)]

# Cases of C2 acting by inversion on Z/m, m seeded, per round. With the
# catalogue these put the median among the Sym(8) centralizers and the
# C4/V4 cases (15-40 ms), and p90 among the S3/C6 H^2 cases (0.4-0.8 s).
INVERSIONS = 5


def _perm_of_type(rng, n, cycle_type):
    pts = list(range(n))
    rng.shuffle(pts)
    images = list(range(n))
    at = 0
    for length in cycle_type:
        cyc = pts[at:at + length]
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % length]
        at += length
    return tuple(images)


class GroupCohomology:
    name = "group-cohomology"
    imports = ("coclass.groupcoh", "coclass.permstruct")

    def make_round(self, rng):
        cases = [Case("trivial", (g, tuple(M)), f"{g} trivial on Z/{M}")
                 for g, M in TRIVIAL_CATALOGUE]
        cases.append(Case("s3-on-v4", (), "S3 permuting V4 - 0"))
        for _ in range(INVERSIONS):
            m = rng.randint(3, 16)
            cases.append(Case("inversion", (m,), f"C2 by inversion on Z/{m}"))
        for t in CYCLE_TYPES:
            n = sum(t)
            cases.append(Case("centralizer", (n, t, _perm_of_type(rng, n, t)),
                              f"centralizer in Sym({n}) of type {t}"))
        rng.shuffle(cases)
        return cases

    def compute(self, case):
        from coclass import groupcoh, permstruct
        from coclass.groupcoh import FiniteGModule
        from coclass.permstruct import FiniteAbelian, Perm, PermGroup

        if case.kind == "centralizer":
            n, _, images = case.inp
            C = permstruct.centralizer_in_sym(PermGroup(n, [Perm(images)]))
            return {"order": C.order}
        if case.kind == "trivial":
            n, gens = GROUPS[case.inp[0]]
            gm = FiniteGModule.trivial(PermGroup.from_cycle_strings(n, gens),
                                       FiniteAbelian(list(case.inp[1])))
        elif case.kind == "inversion":
            m = case.inp[0]
            C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])
            M = FiniteAbelian([m])
            gm = FiniteGModule.from_generator_action(
                C2, M, {C2.generators[0]: {x: M.neg(x) for x in M.elements}})
        else:
            S3 = PermGroup.symmetric(3)
            nz = [(1, 0), (0, 1), (1, 1)]
            action = {g: {(0, 0): (0, 0), **{m: nz[g.images[i]] for i, m in enumerate(nz)}}
                      for g in S3.elements}
            gm = FiniteGModule(S3, FiniteAbelian([2, 2]), action)
        out = {"h1": groupcoh.cohomology(gm, 1).order,
               "classes": len(groupcoh.h1_via_hol(gm)[0])}
        if case.kind != "s3-on-v4":
            out["h2"] = groupcoh.cohomology(gm, 2).order
        return out

    def check(self, case, out):
        if case.kind == "centralizer":
            want = O.centralizer_order(list(case.inp[1]))
            return None if out["order"] == want else f"|C(s)| {out['order']} != {want}"
        if case.kind == "trivial":
            g, M = case.inp
            want1, want2 = TRIVIAL_H[g](M)
        elif case.kind == "inversion":
            want1 = want2 = math.gcd(2, case.inp[0])
        else:
            want1, want2 = 1, None
        if out["h1"] != want1:
            return f"|H^1| {out['h1']} != {want1}"
        if out["classes"] != out["h1"]:
            return "Hol M class count != |H^1|"
        if want2 is not None and out["h2"] != want2:
            return f"|H^2| {out['h2']} != {want2}"
        return None


# ---------------------------------------------------------------------------
# local-symbols
# ---------------------------------------------------------------------------

CONIC_PLACES = (2, 3, 5, 7, 11, 13, "real")
TATE_C3_PRIMES = [p for p in O.primes_between(7, 61) if p % 3 == 1]
TATE_V4_PRIMES = O.primes_between(3, 31)
LOCAL_ROUND = {"pair": 6, "tate-c3": 2, "tate-v4": 2}


def _draw_rational(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 60), rng.randint(1, 12))


class LocalSymbols:
    name = "local-symbols"
    imports = ("coclass.localsym", "coclass.etalealg")

    def make_round(self, rng):
        cases = []
        for _ in range(LOCAL_ROUND["pair"]):
            a, b = _draw_rational(rng), _draw_rational(rng)
            cases.append(Case("pair", (a, b), f"hilbert pair ({_fmt(a)}, {_fmt(b)})"))
        for _ in range(LOCAL_ROUND["tate-c3"]):
            p = rng.choice(TATE_C3_PRIMES)
            cases.append(Case("tate-c3", (p,), f"tate c3 D=1 p={p}"))
        for _ in range(LOCAL_ROUND["tate-v4"]):
            p = rng.choice(TATE_V4_PRIMES)
            cases.append(Case("tate-v4", (p,), f"tate v4 split p={p}"))
        rng.shuffle(cases)
        return cases

    def compute(self, case):
        from coclass import localsym
        from coclass.etalealg import EtaleAlgebra
        from coclass.localsym import Place

        if case.kind == "pair":
            a, b = case.inp
            places = {pl: Place.real() if pl == "real" else Place(pl) for pl in CONIC_PLACES}
            symbols = {pl: localsym.hilbert2(a, b, place).k for pl, place in places.items()}
            conics = {pl: localsym.conic_has_point(a, b, place) for pl, place in places.items()}
            primes = {2} | O.prime_factors(a.numerator * a.denominator
                                           * b.numerator * b.denominator)
            total = localsym.hilbert2(a, b, Place.real()).k + sum(
                localsym.hilbert2(a, b, Place(q)).k for q in sorted(primes))
            return {"symbols": symbols, "conics": conics, "product": total}
        p = case.inp[0]
        if case.kind == "tate-c3":
            reps = localsym.enumerate_h1_local("c3", p, D=1)
            table = [[localsym.tate_pair_c3(p, 1, s, t).k for t in reps] for s in reps]
        else:
            R = EtaleAlgebra.from_text("0,1|0,1|0,1")
            reps = localsym.enumerate_h1_local("v4", p)
            table = [[localsym.tate_pair_v4(p, R, s, t).k for t in reps] for s in reps]
        return {"count": len(reps), "table": table}

    def check(self, case, out):
        if case.kind == "pair":
            for pl, k in out["symbols"].items():
                if (k == 0) != out["conics"][pl]:
                    return f"hilbert symbol at {pl} disagrees with the conic"
            return None if out["product"] % 2 == 0 else "product formula"
        want = 9 if case.kind == "tate-c3" else 16
        table = out["table"]
        if out["count"] != want:
            return f"local H^1 count {out['count']} != {want}"
        if len({tuple(r) for r in table}) != want or len(set(zip(*table))) != want:
            return "tate table rows or columns repeat"
        return None


WORKLOADS = {w.name: w for w in (CliOneshot, CodecRoundtrip, GroupCohomology, LocalSymbols)}
