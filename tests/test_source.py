"""Checks on the package source and on what importing it costs."""

import ast
import json
import re
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coclass

SRC = Path(coclass.__file__).resolve().parent


def test_no_assert_statements_in_library():
    # `python -O` strips asserts, so invariants must raise instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def _loaded_by_cli_import(*modules, argv=None):
    """Which of `modules` a fresh interpreter has loaded after `import
    coclass.cli` and, with `argv`, after running that command through it."""
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = "" if argv is None else f"coclass.cli.main({argv!r}); "
    code = (f"import json, sys, coclass.cli; {run}"
            f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_leaves_mpmath_unloaded():
    assert not _loaded_by_cli_import("mpmath")


def test_cli_import_leaves_argparse_unloaded():
    # the CLI reads its flags from its own grammar table
    assert not _loaded_by_cli_import("argparse")


_LAYERS = ("etalealg", "exactpoly", "groupcoh", "kummerh1", "localsym",
           "corpus")


@pytest.mark.parametrize("argv,unloaded", [
    (None, _LAYERS),
    (["group", "hol", "--orders", "2,2"], ("groupcoh", "etalealg", "exactpoly")),
    (["coh", "h", "--n", "2", "--gens", "(0 1)", "--orders", "2",
      "--degree", "1"], ("etalealg", "kummerh1", "localsym", "exactpoly")),
    (["etale", "info", "--f", "7,0,-6,0,1"],
     ("groupcoh", "kummerh1", "localsym")),
    (["local", "hilbert", "--p", "5", "--a", "2", "--b", "5"],
     ("etalealg", "kummerh1", "groupcoh", "corpus")),
    (["local", "tate", "--module", "c3", "--p", "7", "--D", "1", "--sigma",
      "7", "--tau", "2"], ("etalealg", "kummerh1", "groupcoh", "corpus")),
], ids=["import", "group hol", "coh h", "etale info", "local hilbert",
        "local tate c3"])
def test_cold_cli_loads_only_the_layers_its_command_runs(argv, unloaded):
    # each handler imports its own layers; a cold call pays for no other
    assert not _loaded_by_cli_import(*(f"coclass.{m}" for m in unloaded),
                                     argv=argv)


def test_no_environment_knobs_or_compiled_sources():
    # one implementation of every kernel, chosen by no environment variable
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv") \
                    and isinstance(node.value, ast.Name) and node.value.id == "os":
                reads.append(f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                    and any(a.name in ("environ", "getenv") for a in node.names):
                reads.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not reads, reads
    compiled = [str(p.relative_to(SRC)) for pattern in ("*.c", "*.pyx")
                for p in SRC.rglob(pattern)]
    assert not compiled, compiled


def _code_without_prose(path):
    """The source of path with its comments and docstrings left out."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            node.body = body[1:] or [ast.Pass()]
    return ast.unparse(tree)


def test_every_function_is_named_somewhere_else():
    # a function or method whose name appears only where it is defined is
    # dead code; dunders are called by Python itself.  Only the library
    # counts, and only its code: a name met in prose is no caller, and code
    # that only the tests reach belongs in the tests.
    texts = [_code_without_prose(p) for p in sorted(SRC.rglob("*.py"))]
    defined = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined[node.name] = defined.get(node.name, 0) + 1
    dead = sorted(name for name, n_defs in defined.items()
                  if sum(len(re.findall(rf"\b{name}\b", t)) for t in texts) <= n_defs)
    assert not dead, dead


def test_no_module_function_defined_twice():
    # each module-level function has one home: a copy left behind when a
    # function moves between modules is a second implementation to keep
    homes = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes.setdefault(node.name, []).append(str(path.relative_to(SRC)))
    twice = {name: paths for name, paths in homes.items() if len(paths) > 1}
    assert not twice, twice


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _stores(node, outer):
    """The names node binds in its own scope, first line each; names it
    declares global or nonlocal go to outer.  A nested function or lambda
    has its own scope, a comprehension counts as part of node's."""
    stored = {}
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Global, ast.Nonlocal)):
            outer.update(child.names)
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            stored.setdefault(child.id, child.lineno)
        if not isinstance(child, _SCOPES):
            for name, line in _stores(child, outer).items():
                stored.setdefault(name, line)
    return stored


def test_no_unread_locals():
    # a local that is assigned and never read is dead code, or a value
    # that was meant to be used; `_`-prefixed names are read by no one on
    # purpose.  A nested function reading the name counts as a read
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, _SCOPES):
                continue
            outer = set()
            stored = _stores(fn, outer)
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)}
            unread += [f"{path.relative_to(SRC)}:{line} {name}"
                       for name, line in stored.items()
                       if name not in read | outer and not name.startswith("_")]
    assert not unread, unread


def test_no_unread_parameters():
    # a parameter the body never reads is an input that changes nothing;
    # `self`, `cls` and `_`-prefixed names are exempt, the last for
    # callbacks whose signature is fixed by their caller
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, _SCOPES):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *filter(None, (a.vararg, a.kwarg))]
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)}
            unread += [f"{path.relative_to(SRC)}:{fn.lineno} {p.arg}"
                       for p in params if p.arg not in read | {"self", "cls"}
                       and not p.arg.startswith("_")]
    assert not unread, unread


def test_no_unused_module_imports():
    # a name imported at module level must be used in its module; a package
    # __init__ imports to re-export, and `from __future__` names no value
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(SRC)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_no_permutation_scan_in_library():
    # itertools.permutations walks all n! elements of Sym(n); the library
    # reaches what it needs from generators instead
    users = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools" \
                    and any(a.name == "permutations" for a in node.names):
                users.append(f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "permutations" \
                    and isinstance(node.value, ast.Name) and node.value.id == "itertools":
                users.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not users, users


def test_internal_faults_raise_internal_error():
    # the CLI maps ValueError to exit 2, invalid input; a library fault
    # must raise InternalError (exit 70) so it is never reported as one
    wrong = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                continue
            msg = node.exc.args[0]
            if isinstance(msg, ast.JoinedStr):
                msg = msg.values[0] if msg.values else None
            text = msg.value if isinstance(msg, ast.Constant) else None
            if isinstance(text, str) and (text.startswith("internal")
                                          or "(internal error)" in text):
                func = node.exc.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name != "InternalError":
                    wrong.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not wrong, wrong


def test_one_prime_scan_over_gf_p():
    # `modp.reductions` is the one scan over primes: one primality test,
    # and no other module runs the squarefree test or distinct-degree
    # factorization that each scanned prime needs
    defs, calls = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "is_prime":
                defs.append(rel)
            elif isinstance(node, ast.Call) and rel != os.path.join("exactpoly", "modp.py"):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in ("gf_is_squarefree", "_distinct_degree"):
                    calls.append(f"{rel}:{node.lineno}")
    assert defs == [os.path.join("exactpoly", "modp.py")], defs
    assert not calls, calls
