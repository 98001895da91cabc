"""Command-line interface: every operation behind one binary with JSON
output, plus named corpus suites mirroring the acceptance properties.

Grammar: polynomials are ascending comma-separated coefficient strings
("7,0,-6,0,1" is x^4 - 6x^2 + 7); etale algebras join factors with "|";
permutations use cycle notation and generator lists join with ";".
Exit codes: 0 ok, 2 invalid input, 3 unsupported scope, 64 unknown command,
70 internal fault (a bug in coclass, not in the input; traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import UnsupportedSize, etalealg, groupcoh, kummerh1, localsym, permstruct
from .etalealg import EtaleAlgebra, UnsupportedStructure
from .exactpoly import RationalPoly, discriminant, factor_rationals, is_squarefree
from .exactpoly.modp import is_prime
from .groupcoh import FiniteGModule
from .kummerh1 import CoclassC3, CoclassC4, CoclassV4, QuadElem
from .localsym import LocalFieldDesc, Place, UnsupportedLocal
from .permstruct import FiniteAbelian, PermGroup, UnsupportedDegree

SCHEMA = 1

_UNSUPPORTED = (UnsupportedStructure, UnsupportedLocal, UnsupportedDegree,
                UnsupportedSize)


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def _need(args, name: str) -> str:
    """The value of the flag --name, which this action requires."""
    value = getattr(args, name)
    if value is None:
        raise CliError(f"missing required flag --{name}")
    return value


def _parse_poly(text: str) -> RationalPoly:
    if text is None:
        raise CliError("missing required polynomial flag")
    try:
        return RationalPoly.from_text(text)
    except ValueError as exc:
        raise CliError(f"bad polynomial {text!r}: {exc}") from exc


def _parse_frac(text: str) -> Fraction:
    if text is None:
        raise CliError("missing required rational flag")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}") from exc


def _parse_group(n: int, gens: str) -> PermGroup:
    texts = [t for t in (gens or "").split(";") if t.strip()]
    return PermGroup.from_cycle_strings(n, texts)


def _parse_place(text: str) -> Place:
    if text in ("real", "inf", "oo"):
        return Place.real()
    return Place(int(text))


def _parse_pair(text: str):
    """'x,y' -> (Fraction, Fraction); 'x' -> (Fraction, 0)."""
    parts = text.split(",")
    if len(parts) == 1:
        return _parse_frac(parts[0]), Fraction(0)
    if len(parts) != 2:
        raise CliError(f"expected 'x,y', got {text!r}")
    return _parse_frac(parts[0]), _parse_frac(parts[1])


def _parse_action(module: FiniteAbelian, group: PermGroup, text: str):
    """'(0 1):3|...;(0 1 2):...' -> generator automorphism table; each
    image is a comma tuple in the module's cyclic coordinates, one per
    standard generator of the module, joined with '|'."""
    k = len(module.cyclic_orders)
    gen_action = {}
    for chunk in [c for c in (text or "").split(";") if c.strip()]:
        if ":" not in chunk:
            raise CliError(f"bad action chunk {chunk!r}")
        cyc, imgs = chunk.rsplit(":", 1)
        perm = PermGroup.from_cycle_strings(group.n, [cyc]).generators[0]
        images = []
        for part in imgs.split("|"):
            coords = tuple(int(t) for t in part.split(","))
            if len(coords) != k:
                raise CliError(f"image {part!r} needs {k} coordinates")
            images.append(coords)
        if len(images) != k:
            raise CliError(f"action for {cyc!r} needs {k} generator images")
        gen_action[perm] = module.linear_map(images)
    return gen_action


def _build_gmodule(args) -> FiniteGModule:
    orders = [int(t) for t in args.orders.split(",")]
    module = FiniteAbelian(orders)
    group = _parse_group(args.n, args.gens)
    if getattr(args, "action", None):
        gen_action = _parse_action(module, group, args.action)
        return FiniteGModule.from_generator_action(group, module, gen_action)
    return FiniteGModule.trivial(group, module)


def _quad_from_text(d: int, text: str) -> QuadElem:
    x, y = _parse_pair(text)
    return QuadElem.of(d, x, y)


def _frac_str(x) -> str:
    return str(Fraction(x))


def _algebra_json(L: EtaleAlgebra) -> dict:
    return {"algebra": L.to_text(),
            "factors": [f.to_text() for f in L.factors],
            "degree": L.degree}


def _c3_json(cc: CoclassC3) -> dict:
    return {"D": cc.D.rep,
            "delta": f"{cc.delta.x},{cc.delta.y}",
            "twist": cc.delta.d}


def _v4_json(cc: CoclassV4) -> dict:
    return {"R": cc.R.to_text(),
            "delta": [d.to_text() for d in cc.delta]}


def _c4_json(cc: CoclassC4) -> dict:
    return {"D": cc.D.rep, "a": _frac_str(cc.a), "b": _frac_str(cc.b),
            "c": _frac_str(cc.c)}


# ---------------------------------------------------------------------------
# command handlers (each returns a JSON-able payload)
# ---------------------------------------------------------------------------

def cmd_poly(args):
    f = _parse_poly(args.f)
    if args.action_name == "factor":
        facs = factor_rationals(f)
        return {"factors": [{"poly": g.to_text(), "multiplicity": m}
                            for g, m in facs]}
    return {"disc": _frac_str(discriminant(f))}


def cmd_etale(args):
    if args.text:
        L = EtaleAlgebra.from_text(args.text)
    else:
        L = EtaleAlgebra.from_poly(_parse_poly(args.f))
    if args.action_name == "info":
        out = _algebra_json(L)
        out["galois_tag"] = etalealg.galois_group(L)
        out["disc_class"] = L.discriminant_class().rep
        out["h0"] = L.h0_count()
        if L.degree == 4 and len(L.factors) == 1:
            res = etalealg.cubic_resolvent(L.defining_poly())
            out["resolvents"] = {
                "quadratic": L.discriminant_class().rep,
                "cubic": res.to_text()}
        return out
    if args.action_name == "mirror":
        return _algebra_json(etalealg.mirror_quartic(L))
    if args.action_name == "closure":
        return _algebra_json(etalealg.torsor_closure(L))
    # torsor
    G = _parse_group(args.group_n, args.group)
    return {"is_torsor": etalealg.is_g_torsor(L, G)}


def cmd_group(args):
    if args.action_name == "hol":
        M = FiniteAbelian([int(t) for t in args.orders.split(",")])
        if M.order > groupcoh.MODULE_CAP:
            raise UnsupportedSize("module size exceeds desk caps")
        order = M.order * M.aut_order()
        return {"module": list(M.cyclic_orders), "degree": M.order,
                "order": order,
                "is_symmetric": order == math.factorial(M.order)}
    if args.action_name == "structures":
        image = _parse_group(args.n, args.image)
        G = _parse_group(args.n, args.group)
        count = permstruct.count_g_structures(image, G)
        return {"count": count}
    if args.action_name == "centralizer":
        H = _parse_group(args.n, args.gens)
        C = permstruct.centralizer_in_sym(H)
        return {"order": C.order,
                "generators": [g.to_cycles() for g in C.generators]}
    # partitions
    H = _parse_group(args.n, args.gens)
    parts = permstruct.stable_partitions(H)
    return {"partitions": [sorted(sorted(b) for b in
                                  (list(x) for x in part))
                           for part in parts]}


def cmd_coh(args):
    if args.action_name == "lemma53":
        passed = _lemma53_passes(random.Random(args.seed), args.cases)
        return {"cases": args.cases, "passed": passed,
                "ok": passed == args.cases}
    gm = _build_gmodule(args)
    if args.action_name == "h":
        hn = groupcoh.cohomology(gm, args.degree)
        return {"degree": args.degree, "order": hn.order,
                "invariants": [s for s in hn.invariants if s > 1]}
    # hol-h1: h1_via_hol raises unless its classes match H^1 one to one
    classes, bijection = groupcoh.h1_via_hol(gm)
    order = len(set(bijection.values()))
    return {"classes": len(classes), "order": order,
            "bijection": len(classes) == order}


def cmd_h1(args):
    mod, act = args.module_name, args.action_name
    if mod == "c3":
        D = int(args.D) if args.D else None
        if act == "decode":
            L = EtaleAlgebra.from_poly(_parse_poly(args.f))
            cc, ambiguous = kummerh1.c3_decode(L)
            return {"datum": _c3_json(cc),
                    "flags": ["sign_ambiguous"] if ambiguous else []}
        if D is None:
            raise CliError("missing required flag --D")
        d = etalealg.squarefree_part(-3 * D)
        a = CoclassC3(D, _quad_from_text(d, _need(args, "delta")))
        if act == "encode":
            return _algebra_json(kummerh1.c3_encode(a))
        b = CoclassC3(D, _quad_from_text(d, _need(args, "delta2")))
        return {"datum": _c3_json(kummerh1.c3_add(a, b))}
    if mod == "v4":
        if act == "decode":
            cc = kummerh1.v4_decode(_parse_poly(args.f))
            return {"datum": _v4_json(cc), "flags": ["aut_orbit"]}
        R = EtaleAlgebra.from_text(_need(args, "R"))
        def parse_delta(name):
            return CoclassV4(R, tuple(
                _parse_poly(t) if "," in t else _parse_frac(t)
                for t in _need(args, name).split("|")))
        if act == "encode":
            return _algebra_json(kummerh1.v4_encode(parse_delta("delta")))
        out = kummerh1.v4_add(parse_delta("delta"), parse_delta("delta2"))
        return {"datum": _v4_json(out)}
    # c4
    if act == "decode":
        cc = kummerh1.c4_decode(_parse_poly(args.f))
        return {"datum": _c4_json(cc), "flags": ["b_sign_ambiguous"]}
    mk = lambda a, b, c: CoclassC4(int(_need(args, "D")), _parse_frac(a),
                                   _parse_frac(b), _parse_frac(c))
    if act == "encode":
        return _algebra_json(kummerh1.c4_encode(mk(args.a, args.b, args.c)))
    out = kummerh1.c4_add(mk(args.a, args.b, args.c),
                          mk(args.a2, args.b2, args.c2))
    return {"datum": _c4_json(out)}


def cmd_local(args):
    if args.action_name == "hilbert":
        place = _parse_place(args.p)
        value = localsym.hilbert2(_parse_frac(args.a), _parse_frac(args.b),
                                  place)
        return {"value": value.to_str()}
    if args.action_name == "classes":
        if args.m == 2:
            reps = [c.rep for c in localsym.square_classes(_parse_place(args.p))]
        elif args.m == 3:
            place = _parse_place(args.p)
            # every real number is a cube, so R^x is a single class
            reps = [1] if place.is_real else \
                [c.rep for c in localsym.cube_classes(LocalFieldDesc(place.p))]
        else:
            raise UnsupportedLocal("only square (m = 2) and cube (m = 3) classes")
        return {"m": args.m, "classes": [_frac_str(r) for r in reps]}
    if args.action_name == "h1":
        D = int(args.D) if args.D else None
        data = localsym.enumerate_h1_local(args.module, int(args.p), D=D)
        if args.module == "v4":
            classes = [[_frac_str(x) for x in t] for t in data]
        else:
            classes = [_frac_str(x) for x in data]
        return {"module": args.module, "count": len(data),
                "classes": classes}
    # tate
    p = int(args.p)
    if args.module == "c3":
        D = int(_need(args, "D"))
        d = etalealg.squarefree_part(D)
        dp = etalealg.squarefree_part(-3 * D)
        def side(text, twist):
            if "," in text:
                x, y = _parse_pair(text)
                return QuadElem.of(twist, x, y)
            return _parse_frac(text)
        value = localsym.tate_pair_c3(p, D, side(args.sigma, dp),
                                      side(args.tau, d))
        return {"value": value.to_str()}
    if args.module != "v4":
        raise CliError(f"unknown tate module {args.module!r}")
    R = EtaleAlgebra.from_text(args.R) if args.R else \
        EtaleAlgebra.from_text("0,1|0,1|0,1")
    sigma = tuple(_parse_frac(t) for t in args.sigma.split("|"))
    tau = tuple(_parse_frac(t) for t in args.tau.split("|"))
    return {"value": localsym.tate_pair_v4(p, R, sigma, tau).to_str()}


# ---------------------------------------------------------------------------
# corpus suites
# ---------------------------------------------------------------------------

def random_lemma53_instance(rng: random.Random):
    """A random (X, Y, H, f, n) instance within desk caps, including the
    coordinate-character shapes used for the C2 x C2 theorem."""
    S3 = PermGroup.symmetric(3)
    C2 = PermGroup.from_cycle_strings(2, ["(0 1)"])

    def s3_on_v4():
        M = FiniteAbelian([2, 2])
        nz = [(1, 0), (0, 1), (1, 1)]
        acts = {}
        for g in S3.elements:
            phi = {(0, 0): (0, 0)}
            for i, m in enumerate(nz):
                phi[m] = nz[g.images[i]]
            acts[g] = phi
        return FiniteGModule(S3, FiniteAbelian([2, 2]), acts)

    def s3_c3_sign():
        M3 = FiniteAbelian([3])
        neg = {(0,): (0,), (1,): (2,), (2,): (1,)}
        ident = {m: m for m in M3.elements}
        act = {g: (neg if sum(l - 1 for l in g.cycle_type()) % 2 else ident)
               for g in S3.elements}
        return FiniteGModule(S3, M3, act)

    kind = rng.randrange(4)
    if kind == 0:
        # C2 with small trivial modules, identity or multiplication maps
        orders = rng.choice([[2], [3], [4], [2, 2]])
        X = FiniteGModule.trivial(C2, FiniteAbelian(orders))
        Y = X
        k = rng.choice([1, 1, 2])
        f = {m: X.module.smul(k, m) for m in X.module.elements}
        H = rng.choice([C2, PermGroup(2, [])])
    elif kind == 1:
        X = s3_c3_sign()
        Y = X
        k = rng.choice([1, 2])
        f = {m: X.module.smul(k, m) for m in X.module.elements}
        H = rng.choice([S3, PermGroup.from_cycle_strings(3, ["(0 1 2)"]),
                        PermGroup.from_cycle_strings(3, ["(1 2)"])])
    elif kind == 2:
        # the chi_i coordinate characters from the V4 theorem proof
        X = s3_on_v4()
        Y = FiniteGModule.trivial(S3, FiniteAbelian([2]))
        i = rng.randrange(3)
        nz = [(1, 0), (0, 1), (1, 1)]
        fixed = nz[i]
        others = [m for m in nz if m != fixed]
        f = {(0, 0): (0,), fixed: (0,),
             others[0]: (1,), others[1]: (1,)}
        # H must fix the kernel: the point stabilizer of coordinate i
        pair = [j for j in range(3) if j != i]
        H = PermGroup.from_cycle_strings(3, [f"({pair[0]} {pair[1]})"])
    else:
        X = s3_on_v4()
        Y = X
        f = {m: m for m in X.module.elements}
        H = rng.choice([S3, PermGroup.from_cycle_strings(3, ["(0 1 2)"]),
                        PermGroup(3, [])])
    n = rng.choice([0, 1])
    return X, Y, H, f, n


def _lemma53_passes(rng: random.Random, cases: int) -> int:
    """How many of `cases` random instances pass groupcoh.lemma53_check."""
    passed = 0
    for _ in range(cases):
        ok, _ = groupcoh.lemma53_check(*random_lemma53_instance(rng))
        passed += bool(ok)
    return passed


def _suite_hilbert_conic(rng):
    cases = passed = 0
    places = [Place(q) for q in (2, 3, 5, 7, 13)] + [Place.real()]
    for pl in places:
        reps = [c.rep for c in localsym.square_classes(pl)]
        for a in reps:
            for b in reps:
                cases += 1
                passed += (localsym.hilbert2(a, b, pl).is_trivial()
                           == localsym.conic_has_point(a, b, pl))
    for _ in range(50):
        a = rng.choice([1, -1]) * rng.randint(1, 300)
        b = rng.choice([1, -1]) * rng.randint(1, 300)
        cases += 1
        total = localsym.hilbert2(a, b, Place.real()).k
        for q in range(2, 301):
            if is_prime(q) and (q == 2 or (a * b) % q == 0):
                total += localsym.hilbert2(a, b, Place(q)).k
        passed += (total % 2 == 0)
    return cases, passed


def _random_c3(rng) -> CoclassC3:
    while True:
        D = rng.choice([1, 2, 3, 5, -1, -2, 6, 7, 10])
        d = etalealg.squarefree_part(-3 * D)
        y = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        # norm one: x^2 - d y^2 = 1 rarely solvable; build from a unit:
        # delta = z / conj(z) has norm 1 for any z
        z = QuadElem.of(d, Fraction(rng.randint(1, 9)), y)
        if z.norm() == 0:
            continue
        delta = z * z.conj().inv()
        return CoclassC3(D, delta)


def _suite_roundtrip_c3(rng):
    cases = passed = 0
    for _ in range(50):
        cc = _random_c3(rng)
        L = kummerh1.c3_encode(cc)
        back, ambiguous = kummerh1.c3_decode(L)
        ok = kummerh1.c3_encode(back).canonical() == L.canonical()
        if not ambiguous:
            # back must equal cc or its inverse as a cohomology class; the
            # difference class is trivial iff its algebra has a Q-point
            ok = ok and any(
                kummerh1.c3_encode(
                    kummerh1.c3_add(back, CoclassC3(cc.D.rep, cand.conj()))
                ).h0_count() >= 1
                for cand in (cc.delta, cc.delta.conj()))
        cases += 1
        passed += ok
    return cases, passed


def _random_v4(rng) -> CoclassV4:
    R = EtaleAlgebra.from_text("0,1|0,1|0,1")
    while True:
        vals = [Fraction(rng.choice([1, 2, 3, 5, 6, -1, -2]),
                         rng.choice([1, 2, 3])) for _ in range(2)]
        prod = vals[0] * vals[1]
        if prod == 0:
            continue
        vals.append(1 / prod)
        return CoclassV4(R, tuple(vals))


def _suite_roundtrip_v4(rng):
    cases = passed = 0
    for _ in range(50):
        cc = _random_v4(rng)
        L = kummerh1.v4_encode(cc)
        back = kummerh1.v4_decode(L)
        cases += 1
        passed += kummerh1.v4_encode(back).isomorphic(L)
    return cases, passed


def _random_c4(rng) -> CoclassC4:
    while True:
        D = rng.choice([1, 2, 3, 5, 14])
        u = Fraction(rng.randint(-4, 4))
        v = Fraction(rng.randint(-3, 3))
        beta = QuadElem.of(-D, u, v)
        n = beta.norm()
        if n == 0:
            continue
        al = beta * beta * beta * beta
        return CoclassC4(D, al.x, al.y, n)


def _suite_roundtrip_c4(rng):
    cases = passed = 0
    for _ in range(50):
        cc = _random_c4(rng)
        if rng.random() < 0.5:
            cc = kummerh1.c4_add(
                cc, CoclassC4(cc.D.rep, Fraction(-4), Fraction(0),
                              Fraction(2)))
        L = kummerh1.c4_encode(cc)
        back = kummerh1.c4_decode(L)
        cases += 1
        passed += kummerh1.c4_encode(back).isomorphic(L)
    return cases, passed


def _suite_resolvents(rng):
    cases = passed = 0
    for _ in range(100):
        cc = _random_c3(rng)
        L = kummerh1.c3_encode(cc)
        cases += 1
        passed += (etalealg.quadratic_resolvent(L) == cc.D)
    for _ in range(50):
        cc = _random_v4(rng)
        L = kummerh1.v4_encode(cc)
        cases += 1
        if len(L.factors) == 1:
            R2 = etalealg.cubic_resolvent(L.defining_poly())
        else:
            R2 = kummerh1.v4_decode(L).R
        passed += (R2.canonical() == cc.R.canonical())
    done = 0
    while done < 100:
        f = RationalPoly([Fraction(rng.randint(-8, 8)) for _ in range(4)]
                         + [Fraction(1)])
        if f.degree != 4 or not is_squarefree(f):
            continue
        res = etalealg.cubic_resolvent_poly(f)
        if not is_squarefree(res):
            continue
        done += 1
        cases += 1
        passed += (etalealg.squarefree_part(discriminant(f))
                   == etalealg.squarefree_part(discriminant(res)))
    return cases, passed


def _suite_tate(rng):
    cases = passed = 0
    reps = [c.rep for c in localsym.cube_classes(LocalFieldDesc(7))]
    M = [[localsym.tate_pair_c3(7, 1, u, w).k for w in reps] for u in reps]
    cases += 2
    passed += (len({tuple(r) for r in M}) == 9)
    passed += (len(set(zip(*M))) == 9)
    R3 = EtaleAlgebra.from_text("0,1|0,1|0,1")
    for p in (3, 5, 7):
        triples = localsym.enumerate_h1_local("v4", p)
        T = [[localsym.tate_pair_v4(p, R3, s, t).k for t in triples]
             for s in triples]
        cases += 2
        passed += (len({tuple(r) for r in T}) == len(triples))
        passed += (len(set(zip(*T))) == len(triples))
    return cases, passed


def _suite_structures(rng):
    cases = passed = 0
    C4 = PermGroup.from_cycle_strings(4, ["(0 1 2 3)"])
    S4 = PermGroup.symmetric(4)
    triv = PermGroup(4, [])
    expect = [(C4, C4, 2), (triv, C4, 6), (S4, S4, 1)]
    for image, G, want in expect:
        count = permstruct.count_g_structures(image, G)
        cases += 1
        passed += (count == want)
    for orders, n in [([2], 2), ([3], 3), ([4], 4), ([2, 2], 4)]:
        M = FiniteAbelian(orders)
        cases += 1
        passed += (M.order * M.aut_order() == math.factorial(M.order)) == (
            n <= 4 and orders != [4])
    return cases, passed


def _suite_lemma53(rng):
    return 100, _lemma53_passes(rng, 100)


SUITES = {
    "hilbert-conic": _suite_hilbert_conic,
    "roundtrip-c3": _suite_roundtrip_c3,
    "roundtrip-v4": _suite_roundtrip_v4,
    "roundtrip-c4": _suite_roundtrip_c4,
    "resolvents": _suite_resolvents,
    "tate": _suite_tate,
    "structures": _suite_structures,
    "lemma53": _suite_lemma53,
}


def cmd_corpus(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise CliError(f"unknown suite {unknown[0]!r}; "
                       f"available: {', '.join(sorted(SUITES))}, all")
    rng = random.Random(args.seed)
    results = []
    total = good = 0
    for name in names:
        cases, passed = SUITES[name](rng)
        results.append({"suite": name, "cases": cases, "passed": passed,
                        "ok": cases == passed})
        total += cases
        good += passed
    return {"suites": results, "cases": total, "passed": good,
            "ok": total == good}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

USAGE = """usage: coclass COMMAND ACTION [flags]

commands:
  poly    factor|disc            --f COEFFS
  etale   info|mirror|closure|torsor  --f COEFFS | --text "f1|f2"
  group   hol|structures|centralizer|partitions
  coh     h|hol-h1|lemma53
  h1      c3|v4|c4  encode|decode|add
  local   hilbert|tate|h1|classes
  corpus  run --suite NAME|all
"""

_COMMANDS = {
    "poly": {"factor", "disc"},
    "etale": {"info", "mirror", "closure", "torsor"},
    "group": {"hol", "structures", "centralizer", "partitions"},
    "coh": {"h", "hol-h1", "lemma53"},
    "h1": {"c3", "v4", "c4"},
    "local": {"hilbert", "tate", "h1", "classes"},
    "corpus": {"run"},
}


def _build_parser(cmd: str, sub: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=f"coclass {cmd} {sub}")
    if cmd == "poly":
        p.add_argument("--f", required=True)
    elif cmd == "etale":
        p.add_argument("--f")
        p.add_argument("--text")
        if sub == "torsor":
            p.add_argument("--group", required=True)
            p.add_argument("--group-n", type=int, required=True,
                           dest="group_n")
    elif cmd == "group":
        if sub == "hol":
            p.add_argument("--orders", required=True)
        elif sub == "structures":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--image", required=True)
            p.add_argument("--group", required=True)
        else:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--gens", required=True)
    elif cmd == "coh":
        if sub == "lemma53":
            p.add_argument("--cases", type=int, default=100)
            p.add_argument("--seed", type=int, default=0)
        else:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--gens", required=True)
            p.add_argument("--orders", required=True)
            p.add_argument("--action", default="")
            if sub == "h":
                p.add_argument("--degree", type=int, required=True)
    elif cmd == "h1":
        p.add_argument("action_name", choices=["encode", "decode", "add"])
        p.add_argument("--D")
        p.add_argument("--delta")
        p.add_argument("--delta2")
        p.add_argument("--R")
        p.add_argument("--a")
        p.add_argument("--b")
        p.add_argument("--c")
        p.add_argument("--a2")
        p.add_argument("--b2")
        p.add_argument("--c2")
        p.add_argument("--f")
    elif cmd == "local":
        p.add_argument("--p", required=True)
        if sub == "hilbert":
            p.add_argument("--a", required=True)
            p.add_argument("--b", required=True)
        elif sub == "classes":
            p.add_argument("--m", type=int, default=2)
        elif sub == "h1":
            p.add_argument("--module", required=True)
            p.add_argument("--D")
        else:  # tate
            p.add_argument("--module", required=True)
            p.add_argument("--D")
            p.add_argument("--R")
            p.add_argument("--sigma", required=True)
            p.add_argument("--tau", required=True)
    elif cmd == "corpus":
        p.add_argument("--suite", required=True)
        p.add_argument("--seed", type=int, default=0)
    return p


def _error(code: str, message: str, exit_code: int):
    return {"schema": SCHEMA, "status": "error", "code": code,
            "diagnostics": [message]}, exit_code


def run(argv):
    """Dispatch argv (without the program name); returns (payload, code)."""
    if len(argv) < 2 or argv[0] not in _COMMANDS:
        return _error("usage", USAGE, 64)
    cmd, sub = argv[0], argv[1]
    if cmd == "h1":
        if sub not in _COMMANDS["h1"] or len(argv) < 3 or \
                argv[2] not in ("encode", "decode", "add"):
            return _error("usage", USAGE, 64)
    elif sub not in _COMMANDS[cmd]:
        return _error("usage", USAGE, 64)
    parser = _build_parser(cmd, sub)
    # merge '--flag value' into '--flag=value' so values that begin with a
    # minus sign (negative coefficients, rationals) survive argparse
    raw = list(argv[2:])
    merged = []
    i = 0
    while i < len(raw):
        tok = raw[i]
        if tok.startswith("--") and "=" not in tok \
                and i + 1 < len(raw) and not raw[i + 1].startswith("--"):
            merged.append(f"{tok}={raw[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    try:
        args = parser.parse_args(merged)
    except SystemExit:
        return _error("invalid-flags", f"bad flags for {cmd} {sub}", 2)
    args.action_name = sub if cmd != "h1" else args.action_name
    if cmd == "h1":
        args.module_name = sub
    handler = {"poly": cmd_poly, "etale": cmd_etale, "group": cmd_group,
               "coh": cmd_coh, "h1": cmd_h1, "local": cmd_local,
               "corpus": cmd_corpus}[cmd]
    try:
        payload = handler(args)
    except _UNSUPPORTED as exc:
        return _error("unsupported", str(exc), 3)
    except ValueError as exc:  # CliError and every library input error
        return _error("invalid", str(exc), 2)
    except Exception as exc:  # a fault of coclass itself, not of the input
        import traceback
        traceback.print_exc()
        return _error("internal", f"{type(exc).__name__}: {exc}", 70)
    out = {"schema": SCHEMA, "status": "ok"}
    out.update(payload)
    return out, 0


def main(argv=None) -> int:
    payload, code = run(sys.argv[1:] if argv is None else list(argv))
    print(json.dumps(payload, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
