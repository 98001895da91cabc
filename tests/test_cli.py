"""Tests for coclass.cli.

Every documented command example is executed as a golden test.  Golden JSON
payloads are frozen from independently verified library results (the same
values the per-module test suites check against their oracles); the CLI
layer is tested for faithful serialization, stable field names, exit codes,
and byte-identical output for identical inputs.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coclass import InternalError, cli
from coclass.cli import SUITES, main, run
from coclass.etalealg import EtaleAlgebra
from coclass.permstruct import FiniteAbelian
from helpers import cyclic_orders_up_to


def ok(argv):
    payload, code = run(argv)
    assert code == 0, payload
    assert payload["status"] == "ok"
    assert payload["schema"] == 1
    return payload


def err(argv, expect_code):
    payload, code = run(argv)
    assert code == expect_code, payload
    assert payload["status"] == "error"
    assert payload["schema"] == 1
    assert payload["diagnostics"]
    return payload


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------

def test_poly_factor_golden():
    payload = ok(["poly", "factor", "--f", "-1,0,1"])
    assert payload["factors"] == [
        {"multiplicity": 1, "poly": "-1,1"},
        {"multiplicity": 1, "poly": "1,1"},
    ]


def test_poly_disc_golden():
    # disc(x^4 - 6x^2 + 7) = 7168 = 2^10 * 7 (resultant oracle)
    payload = ok(["poly", "disc", "--f", "7,0,-6,0,1"])
    assert payload["disc"] == "7168"


def test_poly_factor_bad_input_exit_2():
    err(["poly", "factor", "--f", "bogus"], 2)


# ---------------------------------------------------------------------------
# etale
# ---------------------------------------------------------------------------

def test_etale_info_d4_golden():
    payload = ok(["etale", "info", "--f", "7,0,-6,0,1"])
    assert payload == {
        "algebra": "7,0,-6,0,1",
        "degree": 4,
        "disc_class": 7,
        "factors": ["7,0,-6,0,1"],
        "galois_tag": "D4",
        "h0": 0,
        "resolvents": {"cubic": "6,1|-28,0,1", "quadratic": 7},
        "schema": 1,
        "status": "ok",
    }


def test_etale_mirror_golden():
    # mirror of x^4-6x^2+7 is x^4-12x^2+8, the minimal polynomial of
    # sqrt(6+2*sqrt(7))
    payload = ok(["etale", "mirror", "--f", "7,0,-6,0,1"])
    assert payload["algebra"] == "8,0,-12,0,1"


def test_etale_closure_quadratic_and_scope():
    payload = ok(["etale", "closure", "--f", "-2,0,1"])
    assert payload["algebra"] == "-2,0,1"
    err(["etale", "closure", "--f", "7,0,-6,0,1"], 3)


def test_etale_torsor():
    payload = ok(["etale", "torsor", "--f", "6,1,1",
                  "--group", "(0 1)", "--group-n", "2"])
    assert payload["is_torsor"] is True


@pytest.mark.parametrize("coeffs", [
    "1,0,0,0,0,0,0,0,0,1",  # degree 9, past the algebra cap of 8
    "1,0,0,0,0,1",          # degree 5, past the Galois-tag cap of 4
])
def test_etale_info_past_degree_caps_exit_3(coeffs):
    payload = err(["etale", "info", "--f", coeffs], 3)
    assert payload["code"] == "unsupported"


def test_etale_info_missing_flag_exit_2():
    err(["etale", "info"], 2)


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------

def test_group_hol_v4_golden():
    payload = ok(["group", "hol", "--orders", "2,2"])
    assert payload["order"] == 24
    assert payload["is_symmetric"] is True
    assert payload["degree"] == 4


def test_group_hol_order_is_m_times_aut_m_up_to_the_cap():
    for orders in cyclic_orders_up_to(16):
        M = FiniteAbelian(orders)
        payload = ok(["group", "hol", "--orders", ",".join(map(str, orders))])
        assert payload["module"] == list(orders)
        assert payload["degree"] == M.order
        assert payload["order"] == M.order * M.aut_order()
        assert payload["is_symmetric"] == (
            payload["order"] == math.factorial(M.order))


def _cold_seconds(argv, timeout=None):
    """Wall time of one fresh `python -m coclass.cli` process, import
    included, and its exit code; past `timeout` seconds the process is
    killed and `subprocess.TimeoutExpired` fails the caller."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "coclass.cli", *argv],
                          env=env, capture_output=True, timeout=timeout).returncode
    return time.perf_counter() - start, code


def test_group_hol_elementary_abelian_16_cold():
    # |Aut (Z/2)^4| = 20,160 by formula, none of them built; the best of
    # three runs keeps a busy host from failing it
    runs = [_cold_seconds(["group", "hol", "--orders", "2,2,2,2"])
            for _ in range(3)]
    assert all(code == 0 for _, code in runs)
    assert min(seconds for seconds, _ in runs) < 0.5


@pytest.mark.parametrize("orders", ["2,2,2,2,2", "32"])
def test_group_hol_past_module_cap_exit_3(orders):
    # |M| = 32 is past the module cap of 16; Aut (Z/2)^5 = GL_5(F_2) has
    # 9,999,360 elements, too many to list
    start = time.perf_counter()
    payload = err(["group", "hol", "--orders", orders], 3)
    assert time.perf_counter() - start < 1
    assert payload["code"] == "unsupported"
    seconds, code = _cold_seconds(["group", "hol", "--orders", orders])
    assert code == 3 and seconds < 1


@pytest.mark.parametrize("argv", [
    ["etale", "info", "--f", "100000000003,1,0,0,1"],
    ["h1", "c4", "decode", "--f", "100000000003,0,-8,0,1"],
])
def test_large_discriminant_quartics_finish(argv):
    # quartics inside the degree cap with 118-bit discriminants, which
    # unbounded trial division did not take apart within 20 s: an exact
    # answer or exit 3, within the budget, never an internal fault
    seconds, code = _cold_seconds(argv, timeout=5)
    assert code in (0, 3) and seconds < 5


def test_group_structures_golden():
    # C4-image of order 4 in Sym(4): 2 structures; trivial image: 6
    payload = ok(["group", "structures", "--n", "4",
                  "--image", "(0 1 2 3)", "--group", "(0 1 2 3)"])
    assert payload["count"] == 2
    payload = ok(["group", "structures", "--n", "4",
                  "--image", "", "--group", "(0 1 2 3)"])
    assert payload["count"] == 6


def test_group_centralizer_golden():
    payload = ok(["group", "centralizer", "--n", "4", "--gens", "(0 1)(2 3)"])
    assert payload["order"] == 8


def test_group_centralizer_lists_few_generators():
    # C((0 1)) in Sym(8) is Sym(2) x Sym(6), of order 1440
    start = time.perf_counter()
    payload = ok(["group", "centralizer", "--n", "8", "--gens", "(0 1)"])
    assert time.perf_counter() - start < 2.0
    assert payload["order"] == 1440
    assert len(payload["generators"]) <= 8


def test_group_partitions_golden():
    payload = ok(["group", "partitions", "--n", "4", "--gens", "(0 1 2 3)"])
    assert payload["partitions"] == [
        [[0, 1, 2, 3]], [[0, 2], [1, 3]], [[0], [1], [2], [3]]]


# ---------------------------------------------------------------------------
# coh
# ---------------------------------------------------------------------------

def test_coh_h_c2_trivial_golden():
    # H^1(C2, Z/2 trivial) = Hom(C2, Z/2) = Z/2
    payload = ok(["coh", "h", "--n", "2", "--gens", "(0 1)",
                  "--orders", "2", "--degree", "1"])
    assert payload["order"] == 2
    assert payload["invariants"] == [2]


def test_coh_hol_h1_bijection():
    payload = ok(["coh", "hol-h1", "--n", "2", "--gens", "(0 1)",
                  "--orders", "2"])
    assert payload["classes"] == 2
    assert payload["bijection"] is True


@pytest.mark.parametrize("orders,order", [("2", 2), ("2,2", 4)])
def test_coh_hol_h1_s4_from_generator_images(orders, order):
    # S4 on Z/2 has 2^24 maps S4 -> M; its Hol M lifts come from the
    # images of two generators
    start = time.perf_counter()
    payload = ok(["coh", "hol-h1", "--n", "4", "--gens", "(0 1 2 3);(0 1)",
                  "--orders", orders])
    assert time.perf_counter() - start < 5
    assert payload["classes"] == payload["order"] == order
    assert payload["bijection"] is True


def test_coh_lemma53_smoke():
    payload = ok(["coh", "lemma53", "--cases", "5", "--seed", "7"])
    assert payload == {"cases": 5, "ok": True, "passed": 5,
                       "schema": 1, "status": "ok"}


def test_coh_h_oversized_group_exit_3():
    # Sym(9) is rejected before it is enumerated
    payload = err(["coh", "h", "--n", "9", "--gens",
                   "(0 1 2 3 4 5 6 7 8);(0 1)", "--orders", "2",
                   "--degree", "1"], 3)
    assert payload["code"] == "unsupported"


def test_coh_h_inconsistent_action_exit_2():
    err(["coh", "h", "--n", "2", "--gens", "(0 1)", "--orders", "2",
         "--action", "(0 1):0", "--degree", "1"], 2)


# ---------------------------------------------------------------------------
# h1 codecs
# ---------------------------------------------------------------------------

def test_h1_c4_encode_golden():
    payload = ok(["h1", "c4", "encode", "--D", "14",
                  "--a", "-5/4", "--b", "1/2", "--c", "3/2"])
    assert payload["algebra"] == "7,0,-6,0,1"


def test_h1_c4_decode_golden():
    payload = ok(["h1", "c4", "decode", "--f", "7,0,-6,0,1"])
    assert payload["datum"] == {"D": 14, "a": "-5/4", "b": "1/2", "c": "3/2"}
    assert payload["flags"] == ["b_sign_ambiguous"]


def test_h1_c4_decode_two_quadratic_fields():
    # Q(sqrt(30)) x Q(sqrt(6)): its datum re-encodes to the same algebra,
    # not to the split one
    payload = ok(["h1", "c4", "decode", "--f", "20/9,0,-4,0,1"])
    datum = payload["datum"]
    assert datum == {"D": 5, "a": "-79/36", "b": "2/9", "c": "3/2"}
    back = ok(["h1", "c4", "encode", "--D", "5", "--a", datum["a"],
               "--b", datum["b"], "--c", datum["c"]])
    assert EtaleAlgebra.from_text(back["algebra"]).isomorphic(
        EtaleAlgebra.from_text("-10/3,0,1|-2/3,0,1"))


def test_h1_c4_add_golden():
    payload = ok(["h1", "c4", "add", "--D", "14",
                  "--a", "-5/4", "--b", "1/2", "--c", "3/2",
                  "--a2", "-4", "--b2", "0", "--c2", "2"])
    assert payload["datum"] == {"D": 14, "a": "5", "b": "-2", "c": "3"}


def test_h1_c3_encode_add_golden():
    payload = ok(["h1", "c3", "encode", "--D", "5", "--delta", "1/4,1/4"])
    assert payload["algebra"] == "-1/2,-3,0,1"
    payload = ok(["h1", "c3", "add", "--D", "5",
                  "--delta", "1/4,1/4", "--delta2", "1/4,1/4"])
    assert payload["datum"] == {"D": 5, "delta": "-7/8,1/8", "twist": -15}


def test_h1_c3_decode_golden():
    payload = ok(["h1", "c3", "decode", "--f", "-1,-6,3,1"])
    assert payload["datum"]["twist"] == -59
    assert payload["flags"] == ["sign_ambiguous"]


def test_h1_c3_norm_check_exit_2():
    err(["h1", "c3", "encode", "--D", "1", "--delta", "1/4,1/4"], 2)


def test_h1_v4_encode_decode_add_golden():
    payload = ok(["h1", "v4", "encode",
                  "--R", "0,1|0,1|0,1", "--delta", "2|3|1/6"])
    assert payload["algebra"] == "-23/36,-8,-31/3,0,1"
    payload = ok(["h1", "v4", "decode", "--f", "7,0,-6,0,1"])
    assert payload["datum"]["R"] == "2,1|-12,8,1"
    assert payload["flags"] == ["aut_orbit"]
    payload = ok(["h1", "v4", "add", "--R", "0,1|0,1|0,1",
                  "--delta", "2|3|1/6", "--delta2", "3|3|1/9"])
    assert payload["datum"]["delta"] == ["6", "9", "1/54"]


def test_h1_missing_flags_exit_2():
    err(["h1", "c4", "encode", "--D", "14", "--a", "-5/4", "--b", "1/2"], 2)
    err(["h1", "v4", "encode", "--R", "0,1|0,1|0,1"], 2)


@pytest.mark.parametrize("argv", [
    ["poly", "factor", "--f", "1/0"],
    ["etale", "info"],
    ["etale", "info", "--text", "1/0"],
    ["h1", "c3", "encode", "--delta", "1/2,1/2"],
    ["h1", "c3", "encode", "--D", "1"],
    ["h1", "c3", "add", "--D", "1", "--delta", "1/2,1/2"],
    ["h1", "c4", "encode", "--a", "-5/4", "--b", "1/2", "--c", "3/2"],
    ["h1", "v4", "encode", "--delta", "2|3|1/6"],
    ["local", "tate", "--module", "c3", "--p", "7", "--sigma", "7",
     "--tau", "2"],
    ["local", "tate", "--module", "c3", "--p", "7", "--D", "1",
     "--sigma", "0", "--tau", "2"],
    ["local", "h1", "--p", "0", "--module", "v4"],
], ids=" ".join)
def test_argv_faults_exit_2_not_internal(argv):
    # each of these once reached a TypeError, AttributeError or
    # ZeroDivisionError, which exit 70 now reserves for library faults
    assert err(argv, 2)["code"] == "invalid"


# ---------------------------------------------------------------------------
# local
# ---------------------------------------------------------------------------

def test_local_hilbert_golden():
    assert ok(["local", "hilbert", "--p", "5",
               "--a", "2", "--b", "5"])["value"] == "-1"
    assert ok(["local", "hilbert", "--p", "real",
               "--a", "-1", "--b", "-1"])["value"] == "-1"
    err(["local", "hilbert", "--p", "5", "--a", "0", "--b", "3"], 2)


def test_local_classes_golden():
    assert ok(["local", "classes", "--p", "5",
               "--m", "2"])["classes"] == ["1", "2", "5", "10"]
    assert ok(["local", "classes", "--p", "real",
               "--m", "2"])["classes"] == ["1", "-1"]
    # every real number is a cube
    payload = ok(["local", "classes", "--p", "real", "--m", "3"])
    assert (payload["m"], payload["classes"]) == (3, ["1"])


def test_local_classes_of_other_orders_exit_3():
    # only square and cube classes are listed; no other m falls back to cubes
    assert ok(["local", "classes", "--p", "7", "--m", "3"])["m"] == 3
    for m in ("0", "1", "5"):
        err(["local", "classes", "--p", "7", "--m", m], 3)


def test_local_h1_golden():
    payload = ok(["local", "h1", "--p", "7", "--module", "mu3"])
    assert payload["count"] == 9
    assert payload["classes"] == [
        "1", "2", "4", "7", "14", "28", "49", "98", "196"]
    payload = ok(["local", "h1", "--p", "5", "--module", "v4"])
    assert payload["count"] == 16
    assert ["2", "5", "10"] in payload["classes"]


def test_local_h1_nonsplit_exit_3():
    # T' nonsplit at p=5 for D=1 (-3 is not a square mod 5)
    err(["local", "h1", "--p", "5", "--module", "c3", "--D", "1"], 3)


def test_local_tate_golden():
    base = ["local", "tate", "--module", "c3", "--p", "7", "--D", "1"]
    assert ok(base + ["--sigma", "7", "--tau", "2"])["value"] == "zeta3^1"
    assert ok(base + ["--sigma", "7", "--tau", "4"])["value"] == "zeta3^2"
    assert ok(base + ["--sigma", "7", "--tau", "7"])["value"] == "+1"
    payload = ok(["local", "tate", "--module", "v4", "--p", "3",
                  "--sigma", "2|1/2|1", "--tau", "5|1/5|1"])
    assert payload["value"] == "+1"


@pytest.mark.parametrize("p", ["0", "1", "-1", "4", "9"])
def test_local_tate_rejects_non_prime_p(p):
    # 1, -1 and 9 never returned, 0 divided by zero, 4 gave a value
    err(["local", "tate", "--module", "c3", "--p", p, "--D", "1",
         "--sigma", "7", "--tau", "2"], 2)


def test_local_tate_wild_exit_3():
    err(["local", "tate", "--module", "c3", "--p", "3", "--D", "1",
         "--sigma", "2", "--tau", "2"], 3)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_suite_names():
    assert set(SUITES) == {"hilbert-conic", "roundtrip-c3", "roundtrip-v4",
                           "roundtrip-c4", "resolvents", "tate",
                           "structures", "lemma53"}


def test_corpus_run_single_suites():
    for name in ("structures", "tate"):
        payload = ok(["corpus", "run", "--suite", name])
        assert payload["ok"] is True
        assert payload["passed"] == payload["cases"] > 0


def test_corpus_unknown_suite_exit_2():
    err(["corpus", "run", "--suite", "nope"], 2)


# ---------------------------------------------------------------------------
# dispatch, usage, stability
# ---------------------------------------------------------------------------

def test_unknown_command_exit_64():
    payload, code = run(["frobnicate"])
    assert code == 64
    assert payload["code"] == "usage"
    assert "usage: coclass" in payload["diagnostics"][0]
    payload, code = run([])
    assert code == 64


def test_unknown_action_exit_64():
    _, code = run(["poly", "frobnicate"])
    assert code == 64


def test_main_prints_sorted_json(capsys):
    code = main(["local", "hilbert", "--p", "5", "--a", "2", "--b", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert json.loads(out)["value"] == "-1"


def test_byte_identical_output():
    argv = ["etale", "info", "--f", "7,0,-6,0,1"]
    outs = set()
    for _ in range(2):
        payload, code = run(argv)
        assert code == 0
        outs.add(json.dumps(payload, sort_keys=True))
    assert len(outs) == 1


@pytest.mark.skipif(shutil.which("coclass") is None,
                    reason="console script not installed")
def test_console_script_byte_identical():
    argv = ["coclass", "local", "hilbert", "--p", "5", "--a", "2", "--b", "5"]
    a = subprocess.run(argv, capture_output=True, check=True).stdout
    b = subprocess.run(argv, capture_output=True, check=True).stdout
    assert a == b
    assert json.loads(a) == {"schema": 1, "status": "ok", "value": "-1"}


def test_errors_carry_machine_code_not_traceback():
    payload = err(["poly", "factor", "--f", "bogus"], 2)
    assert payload["code"] == "invalid"
    assert "Traceback" not in " ".join(payload["diagnostics"])


@pytest.mark.parametrize("exc", [TypeError, AttributeError, KeyError,
                                 ZeroDivisionError, InternalError])
def test_library_fault_exits_70_internal(monkeypatch, exc):
    def broken(args):
        raise exc("cannot unpack non-iterable int object")
    monkeypatch.setattr(cli, "cmd_group", broken)
    payload = err(["group", "hol", "--orders", "2"], 70)
    assert payload["code"] == "internal"
    assert payload["diagnostics"][0].startswith(exc.__name__)
