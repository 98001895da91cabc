"""Command-line interface: every operation behind one binary with JSON
output.

Each handler imports the layers it runs, so a cold process compiles and
loads only those; `corpus run` and `coh lemma53` load the suites of
`coclass.corpus`.

Grammar: `coclass COMMAND ACTION` (for h1, `coclass h1 MODULE ACTION`)
followed by flags from `GRAMMAR`, each `--name value` or `--name=value`.
Polynomials are ascending comma-separated coefficient strings
("7,0,-6,0,1" is x^4 - 6x^2 + 7); etale algebras join factors with "|";
permutations use cycle notation and generator lists join with ";".
Exit codes: 0 ok, 2 invalid input, 3 unsupported scope, 64 unknown command,
70 internal fault (a bug in coclass, not in the input; traceback on stderr).
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import MODULE_CAP, Unsupported, UnsupportedSize, permstruct
from .permstruct import FiniteAbelian, Perm, PermGroup

if TYPE_CHECKING:
    from .etalealg import EtaleAlgebra
    from .exactpoly import RationalPoly
    from .groupcoh import FiniteGModule
    from .kummerh1 import CoclassC3, CoclassC4, CoclassV4
    from .localsym import Place
    from .quadratic import QuadElem

SCHEMA = 1


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
    from .exactpoly import RationalPoly
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
    from .localsym import Place
    if text in ("real", "inf", "oo"):
        return Place.real()
    if int(text) == 0:
        raise CliError("0 is no place of Q; the real place is 'real'")
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
    standard generator of the module, joined with '|'.  A chunk for the
    identity "()" must give the identity map, and adds nothing."""
    k = len(module.cyclic_orders)
    gen_action = {}
    one = Perm.identity(group.n)
    for chunk in [c for c in (text or "").split(";") if c.strip()]:
        if ":" not in chunk:
            raise CliError(f"bad action chunk {chunk!r}")
        cyc, imgs = chunk.rsplit(":", 1)
        perm = Perm.from_cycles(cyc, group.n)
        images = []
        for part in imgs.split("|"):
            coords = tuple(int(t) for t in part.split(","))
            if len(coords) != k:
                raise CliError(f"image {part!r} needs {k} coordinates")
            images.append(coords)
        if len(images) != k:
            raise CliError(f"action for {cyc!r} needs {k} generator images")
        phi = module.linear_map(images)
        if perm != one:
            gen_action[perm] = phi
        elif any(x != y for x, y in phi.items()):
            raise CliError(f"the identity {cyc.strip()!r} must act as the "
                           "identity map")
    return gen_action


def _build_gmodule(args) -> FiniteGModule:
    from .groupcoh import FiniteGModule
    orders = [int(t) for t in args.orders.split(",")]
    module = FiniteAbelian(orders)
    group = _parse_group(args.n, args.gens)
    if getattr(args, "action", None):
        gen_action = _parse_action(module, group, args.action)
        return FiniteGModule.from_generator_action(group, module, gen_action)
    return FiniteGModule.trivial(group, module)


def _quad_from_text(d: int, text: str) -> QuadElem:
    from .quadratic import QuadElem
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
    from .exactpoly import discriminant, factor_rationals
    f = _parse_poly(args.f)
    if args.action_name == "factor":
        facs = factor_rationals(f)
        return {"factors": [{"poly": g.to_text(), "multiplicity": m}
                            for g, m in facs]}
    return {"disc": _frac_str(discriminant(f))}


def cmd_etale(args):
    from . import etalealg
    from .etalealg import EtaleAlgebra
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
        if M.order > MODULE_CAP:
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
        if args.cases < 0:
            raise CliError("--cases must be >= 0")
        import random
        from .corpus import lemma53_passes
        passed = lemma53_passes(random.Random(args.seed), args.cases)
        return {"cases": args.cases, "passed": passed,
                "ok": passed == args.cases}
    from . import groupcoh
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
    from . import kummerh1
    from .etalealg import EtaleAlgebra
    from .kummerh1 import CoclassC3, CoclassC4, CoclassV4
    from .quadratic import squarefree_part
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
        d = squarefree_part(-3 * D)
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
    from . import localsym
    from .localsym import LocalFieldDesc, UnsupportedLocal
    from .quadratic import QuadElem, squarefree_part
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
        data = localsym.enumerate_h1_local(args.module, _parse_place(args.p).p,
                                           D=D)
        if args.module == "v4":
            classes = [[_frac_str(x) for x in t] for t in data]
        else:
            classes = [_frac_str(x) for x in data]
        return {"module": args.module, "count": len(data),
                "classes": classes}
    # tate
    p = _parse_place(args.p).p
    if args.module == "c3":
        D = int(_need(args, "D"))
        d = squarefree_part(D)
        dp = squarefree_part(-3 * D)
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
    from .etalealg import EtaleAlgebra
    R = EtaleAlgebra.from_text(args.R) if args.R else \
        EtaleAlgebra.from_text("0,1|0,1|0,1")
    sigma = tuple(_parse_frac(t) for t in args.sigma.split("|"))
    tau = tuple(_parse_frac(t) for t in args.tau.split("|"))
    return {"value": localsym.tate_pair_v4(p, R, sigma, tau).to_str()}


def cmd_corpus(args):
    import random
    from .corpus import SUITES
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

# The grammar: (command, action) words, or (h1, module, action), to the
# flags they take, each flag to its (type, default); a default of _REQUIRED
# marks a flag the action cannot do without.
_REQUIRED = object()
_STR, _STR_REQ, _INT_REQ = (str, None), (str, _REQUIRED), (int, _REQUIRED)
_ETALE = {"f": _STR, "text": _STR}
_GROUP = {"n": _INT_REQ, "gens": _STR_REQ}
_GMODULE = {**_GROUP, "orders": _STR_REQ, "action": (str, "")}
_H1 = dict.fromkeys(("D", "delta", "delta2", "R", "a", "b", "c", "a2", "b2",
                     "c2", "f"), _STR)

GRAMMAR = {
    ("poly", "factor"): {"f": _STR_REQ},
    ("poly", "disc"): {"f": _STR_REQ},
    ("etale", "info"): _ETALE,
    ("etale", "mirror"): _ETALE,
    ("etale", "closure"): _ETALE,
    ("etale", "torsor"): {**_ETALE, "group": _STR_REQ, "group-n": _INT_REQ},
    ("group", "hol"): {"orders": _STR_REQ},
    ("group", "structures"): {"n": _INT_REQ, "image": _STR_REQ,
                              "group": _STR_REQ},
    ("group", "centralizer"): _GROUP,
    ("group", "partitions"): _GROUP,
    ("coh", "h"): {**_GMODULE, "degree": _INT_REQ},
    ("coh", "hol-h1"): _GMODULE,
    ("coh", "lemma53"): {"cases": (int, 100), "seed": (int, 0)},
    **{("h1", module, action): _H1 for module in ("c3", "v4", "c4")
       for action in ("encode", "decode", "add")},
    ("local", "hilbert"): {"p": _STR_REQ, "a": _STR_REQ, "b": _STR_REQ},
    ("local", "classes"): {"p": _STR_REQ, "m": (int, 2)},
    ("local", "h1"): {"p": _STR_REQ, "module": _STR_REQ, "D": _STR},
    ("local", "tate"): {"p": _STR_REQ, "module": _STR_REQ, "D": _STR,
                        "R": _STR, "sigma": _STR_REQ, "tau": _STR_REQ},
    ("corpus", "run"): {"suite": _STR_REQ, "seed": (int, 0)},
}


def _parse_flags(flags: dict, words):
    """The namespace of `--name value` and `--name=value` words, a value
    that begins with '--' only in the second form; the last of repeated
    flags wins, and '-' becomes '_' in attribute names.  None if a word is
    no flag of `flags`, a flag lacks its value, a value is not of its type
    or a required flag is missing."""
    given = {}
    words = iter(words)
    for word in words:
        name, eq, value = word[2:].partition("=")
        if not eq:  # a missing value reads as '--', refused below
            value = next(words, "--")
        if not word.startswith("--") or name not in flags \
                or not eq and value.startswith("--"):
            return None
        try:
            given[name] = flags[name][0](value)
        except ValueError:
            return None
    args = {name.replace("-", "_"): given.get(name, default)
            for name, (_, default) in flags.items()}
    return None if _REQUIRED in args.values() else SimpleNamespace(**args)


def _error(code: str, message: str, exit_code: int):
    return {"schema": SCHEMA, "status": "error", "code": code,
            "diagnostics": [message]}, exit_code


def run(argv):
    """Dispatch argv (without the program name); returns (payload, code)."""
    argv = list(argv)
    words = tuple(argv[:3 if argv[:1] == ["h1"] else 2])
    if words not in GRAMMAR:
        return _error("usage", USAGE, 64)
    args = _parse_flags(GRAMMAR[words], argv[len(words):])
    if args is None:
        return _error("invalid-flags", f"bad flags for {words[0]} {words[1]}", 2)
    # h1 names its module in the second word and its action in the third
    args.module_name, args.action_name = words[1], words[-1]
    cmd = words[0]
    handler = {"poly": cmd_poly, "etale": cmd_etale, "group": cmd_group,
               "coh": cmd_coh, "h1": cmd_h1, "local": cmd_local,
               "corpus": cmd_corpus}[cmd]
    try:
        payload = handler(args)
    except Unsupported as exc:
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
