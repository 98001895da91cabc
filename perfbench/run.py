#!/usr/bin/env python3
"""coclass benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-oneshot, codec-roundtrip, group-cohomology, local-symbols
(see perfbench/README.md). With --trace 0 the run measures whole rounds
of cases for at least S seconds and prints the end-to-end metrics; with
--trace 1 it runs a fixed number of rounds untraced and then traced, and
prints the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

coclass is imported from the src/ directory next to this one; the run
stops with exit code 2 if it is missing or if coclass resolves elsewhere.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 4     # set-up is measured this many times per run
POOL_ROUNDS = 16     # seeded rounds built in set-up; runs cycle through them
# Rounds per traced run: fixed, so that call counts repeat exactly.
TRACE_ROUNDS = {"cli-oneshot": 4, "codec-roundtrip": 4, "group-cohomology": 2,
                "local-symbols": 4}
CHILD_PROBES = 5     # fresh interpreters per start-up and import figure

# The speed of a shared host drifts: a fixed cohomology case took 74 to
# 147 ms within four minutes, and 20-s means of it spread by 15-25 %
# between windows, while steal time stayed under 2 %. Raw wall times of
# two runs of the same code then differ by more than any useful bound. So
# every reported time t is rescaled as t * nominal / r, where r is the local
# time of a fixed reference that does not touch coclass, timed next to it.
# Each reference does the kind of work that dominates what it rescales:
# a pure-Python loop for in-process cases, the conic search's numpy step
# for local-symbols, and a fresh interpreter importing numpy and mpmath for
# work done in a child process (a CLI case, a set-up probe), so that the
# state of the file cache shows in it as in them. Raw times stay in the
# result file.
REF_STEPS = 1000
REF_NUMPY_MODULUS = 729
REF_NOMINAL_MS = 3.0         # the loop's median time on the reference machine
REF_NUMPY_NOMINAL_MS = 4.0   # the numpy step's median time there
REF_CHILD_NOMINAL_MS = 280.0  # the reference child's median time there
REF_CHILD_EVERY = 3  # the child reference is timed after every third case


class GuardError(Exception):
    pass


def reference_ms():
    """Wall time of a fixed loop of Fraction arithmetic and dict updates,
    the kind of work the program does; it does not touch coclass."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, REF_STEPS):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[i & 255] = table.get(i & 255, 0) + i
    return (time.perf_counter() - t0) * 1e3


def reference_numpy_ms():
    """Wall time of the broadcast add and table lookup that dominate the
    numpy conic search, on a fixed modulus; it does not touch coclass."""
    import numpy as np
    t0 = time.perf_counter()
    zs = np.arange(REF_NUMPY_MODULUS, dtype=np.int64)
    squares = np.zeros(REF_NUMPY_MODULUS, dtype=bool)
    squares[(zs * zs) % REF_NUMPY_MODULUS] = True
    xs = (3 * zs * zs) % REF_NUMPY_MODULUS
    squares[(xs[:, None] + xs[None, :]) % REF_NUMPY_MODULUS].any()
    return (time.perf_counter() - t0) * 1e3


def reference_child_ms():
    """Wall time of a fresh interpreter that imports numpy and mpmath."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, mpmath"], check=True)
    return (time.perf_counter() - t0) * 1e3


def reference_for(workload):
    """(reference timer, its nominal ms, cases between timings) for the
    workload's cases."""
    if workload.name == "cli-oneshot":
        return reference_child_ms, REF_CHILD_NOMINAL_MS, REF_CHILD_EVERY
    if workload.name == "local-symbols":
        return reference_numpy_ms, REF_NUMPY_NOMINAL_MS, 1
    return reference_ms, REF_NOMINAL_MS, 1


def import_coclass():
    """Import coclass from this checkout's src/ and return its backend."""
    pkg = SRC / "coclass"
    if not (pkg / "__init__.py").is_file():
        raise GuardError(f"no coclass package under {SRC}")
    sys.path.insert(0, str(SRC))
    import coclass
    from coclass import _kernels
    where = Path(coclass.__file__).resolve().parent
    if where != pkg.resolve():
        raise GuardError(f"coclass resolves to {where}, not {pkg}")
    return _kernels.BACKEND


def check_child_import(env):
    """The CLI children must resolve coclass from the same src/."""
    out = subprocess.run([sys.executable, "-c", "import coclass; print(coclass.__file__)"],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    where = Path(out.stdout.strip()).resolve().parent
    if where != (SRC / "coclass").resolve():
        raise GuardError(f"child coclass resolves to {where}")


def build(workload, seed):
    """Set-up: import the layers the workload calls, build the seeded
    rounds, and for cli-oneshot run one warm-up child."""
    for module in workload.imports:
        importlib.import_module(module)
    rng = random.Random(seed)
    rounds = [workload.make_round(rng) for _ in range(POOL_ROUNDS)]
    if workload.name == "cli-oneshot":
        check_child_import(workload.env)
        workload.compute(rounds[0][0])
    return rounds


def probe_setup(name, seed):
    """Child side of the set-up measurement: set up, then print the clock."""
    import workloads
    import_coclass()
    build(workloads.WORKLOADS[name](), seed)
    print(time.perf_counter(), flush=True)


def measure_setup(name, seed):
    """Median time from spawning a fresh interpreter to the end of its
    set-up, raw and rescaled. perf_counter is CLOCK_MONOTONIC, shared by
    parent and child."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = reference_child_ms()
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                              "--workload", name, "--seed", str(seed)],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        raw.append(float(out.stdout.split()[-1]) - t0)
        local = (before + reference_child_ms()) / 2
        scaled.append(raw[-1] * REF_CHILD_NOMINAL_MS / local)
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = {}       # label -> [count, reason]
        self.unexpected = 0
        self.costs = []          # (kind, ms)

    def run(self, workload, cases, compute=None, refs=None, reference=None, every=1):
        """Run and tally cases; with a list `refs`, time `reference` after
        every `every` cases and append (cases attempted so far, ms)."""
        from workloads import case_failure
        for case in cases:
            t0 = time.perf_counter()
            reason = case_failure(workload, case) if compute is None else compute(case)
            ms = (time.perf_counter() - t0) * 1e3
            self.attempted += 1
            if refs is not None and self.attempted % every == 0:
                refs.append((self.attempted, reference()))
            self.costs.append((case.kind, ms))
            if reason is not None:
                entry = self.failures.setdefault(case.label, [0, reason])
                entry[0] += 1
                if case.known_fault is None or case.known_fault not in reason:
                    self.unexpected += 1

    @property
    def failed(self):
        return sum(n for n, _ in self.failures.values())


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timed_run(workload, rounds, seconds):
    tally = Tally()
    reference, nominal, every = reference_for(workload)
    refs = [(0, reference())]   # (cases attempted before it, ms)
    start = time.perf_counter()
    deadline = start + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        tally.run(workload, rounds[r % len(rounds)], refs=refs, reference=reference,
                  every=every)
        r += 1
    elapsed = time.perf_counter() - start
    raw = [ms for _, ms in tally.costs]
    # local reference time: median of the two timings before and the two
    # after the case
    positions = [n for n, _ in refs]
    scaled = []
    for i, ms in enumerate(raw):
        k = bisect.bisect_right(positions, i)
        near = [t for _, t in refs[max(0, k - 2):k + 2]]
        scaled.append(ms * nominal / statistics.median(near))
    if workload.name == "cli-oneshot":
        peak_kb = workload.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "cases_per_s": (tally.attempted / (sum(scaled) / 1e3), "1/s"),
        "case_p50_ms": (statistics.median(scaled), "ms"),
        "case_p90_ms": (quantile(scaled, 0.9), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    info = {"rounds": r, "timed_s": elapsed,
            "reference_ms_median": statistics.median(t for _, t in refs),
            "raw": {"cases_per_s": tally.attempted / elapsed,
                    "case_p50_ms": statistics.median(raw),
                    "case_p90_ms": quantile(raw, 0.9)},
            "case_scaled_ms": scaled}
    return tally, metrics, info


def import_figures():
    """Medians over fresh children: bare start-up, `import coclass.cli`, and
    numpy's cumulative share of that import from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    startup, imports, numpy = [], [], []
    for _ in range(CHILD_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        startup.append((time.perf_counter() - t0) * 1e3)
        out = subprocess.run(
            [sys.executable, "-c", "import time; t = time.perf_counter(); "
             "import coclass.cli; print(time.perf_counter() - t)"],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        imports.append(float(out.stdout) * 1e3)
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import coclass.cli"],
                             cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        # "import time: self [us] | cumulative | imported package"
        numpy.append(next(int(line.split("|")[1]) / 1e3 for line in out.stderr.splitlines()
                          if line.split("|")[-1].strip() == "numpy"))
    return {"python.startup_ms": statistics.median(startup),
            "cli.import_ms": statistics.median(imports),
            "cli.import_numpy_ms": statistics.median(numpy)}


def traced_run(workload, rounds, seed):
    """A fixed number of rounds, each case run once untraced and once
    traced; the per-layer metrics come from the traced side."""
    from spans import Tracer, metric_names
    from workloads import case_failure

    cases = [c for r in rounds[:TRACE_ROUNDS[workload.name]] for c in r]
    compute = None
    if workload.name == "cli-oneshot":
        # spans cannot reach into the children: trace a warm in-process
        # cli.run over the same argv lists instead
        import coclass.cli

        class InProcess:
            name = workload.name
            check = workload.check

            def compute(self, case):
                payload, code = coclass.cli.run(list(case.inp))
                return {"code": code, "payload": json.loads(json.dumps(payload))}

        inproc = InProcess()
        compute = lambda case: case_failure(inproc, case)  # noqa: E731

    # Each case runs once untraced and once traced, in alternating order,
    # so that warm-up and drift fall on both sides alike.
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for i, case in enumerate(cases):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side:
                tracer.case = i
                tracer.install()
            try:
                t0 = time.perf_counter()
                (traced if side else plain).run(workload, [case], compute)
                dt = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            if side:
                traced_s += dt
            else:
                untraced_s += dt
    missed = tracer.missed_layers(workload.name)
    if missed:
        raise GuardError(f"layers never hit on {workload.name}: {', '.join(missed)}")

    values = tracer.metrics()
    values.update(import_figures())
    values["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    metrics = {name: (values[name], unit) for name, unit in metric_names()}
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json")
    return traced, metrics, {"untraced_s": untraced_s, "traced_s": traced_s,
                             "spans": len(tracer.spans),
                             "untraced_failed": plain.failed,
                             "untraced_unexpected": plain.unexpected}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    try:
        if args.setup_probe:
            probe_setup(args.workload, args.seed)
            return 0
        backend = import_coclass()
        workload = workloads.WORKLOADS[args.workload]()
        if args.trace:
            rounds = build(workload, args.seed)
            tally, metrics, info = traced_run(workload, rounds, args.seed)
        else:
            setup_s, setup_raw = measure_setup(args.workload, args.seed)
            rounds = build(workload, args.seed)
            tally, metrics, info = timed_run(workload, rounds, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            info["raw"]["setup_s"] = setup_raw
    except (GuardError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    result = {"correct": tally.unexpected == 0 and info.get("untraced_unexpected", 0) == 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "backend": backend, "python": platform.python_version(),
              "machine": platform.machine(), "nproc": os.cpu_count(), **info,
              "failed_inputs": {k: {"count": n, "reason": r}
                                for k, (n, r) in tally.failures.items()},
              "case_ms": tally.costs, "result": result}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("case_ms", "case_scaled_ms", "result")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
