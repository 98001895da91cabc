"""Checks on the package source and on what importing it costs."""

import ast
import re
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_mpmath_unloaded():
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, coclass.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


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
