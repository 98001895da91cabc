#!/usr/bin/env python3
"""Checker self-test: for each workload, the program's real output for one
case must pass its checker, and the same output with one planted wrong
answer must be counted as a failed case.

    python3 perfbench/selftest.py

Exits 0 when every planted answer is caught.
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _flip_hilbert(out):
    value = out["payload"]["value"]
    return {**out, "payload": {**out["payload"], "value": "-1" if value == "+1" else "+1"}}


def _flip_symbol(out):
    symbols = dict(out["symbols"])
    symbols[3] = 1 - symbols[3]
    return {**out, "symbols": symbols}


# workload -> (case kind, planted wrong answer, description)
PLANTS = {
    "cli-oneshot": ("local-hilbert", _flip_hilbert, "flipped Hilbert symbol"),
    "codec-roundtrip": ("c4", lambda out: {**out, "isomorphic": False},
                        "non-isomorphic re-encode"),
    "group-cohomology": ("trivial", lambda out: {**out, "h2": out["h2"] + 1},
                         "wrong H^2 order"),
    "local-symbols": ("pair", _flip_symbol, "flipped Hilbert symbol at 3"),
}


class Planted:
    """The workload with one answer of its output replaced."""

    def __init__(self, workload, plant):
        self.workload, self.plant = workload, plant
        self.name = workload.name

    def compute(self, case):
        return self.plant(self.workload.compute(case))

    def check(self, case, out):
        return self.workload.check(case, out)


def main():
    run.import_coclass()
    missed = 0
    for name, (kind, plant, what) in PLANTS.items():
        workload = workloads.WORKLOADS[name]()
        for module in workload.imports:
            importlib.import_module(module)
        case = next(c for c in workload.make_round(random.Random(0)) if c.kind == kind)
        honest, planted = run.Tally(), run.Tally()
        honest.run(workload, [case])
        planted.run(Planted(workload, plant), [case])
        caught = honest.failed == 0 and planted.failed == 1 and planted.unexpected == 1
        reason = next(iter(planted.failures.values()), [0, None])[1]
        print(f"{name}: {what} on '{case.label}': honest failed {honest.failed}, "
              f"planted failed {planted.failed} ({reason}) -> {'caught' if caught else 'MISSED'}")
        missed += not caught
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
