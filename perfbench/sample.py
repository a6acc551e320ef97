"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/sample.py --workload NAME --seed N --launched NS
                                [--mode full|check-only|setup-only] [--trace]

``--launched`` is the ``time.monotonic_ns()`` reading taken by the parent just
before it started this interpreter, so ``setup_s`` covers interpreter start,
imports, theory loading and input parsing.  The sample then runs each entry of
the workload once, in the seeded order, with a theory loaded for that entry
alone, and prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# the command-line front end raises the limit the same way
sys.setrecursionlimit(100_000)

from workloads import entry_order  # noqa: E402


def _prepare(names, corpus, syntax, terms, logic):
    """Load a fresh theory and parse the inputs of every entry.  Functions
    are looked up on their modules at call time, so traced samples see the
    rebound ones."""
    by_name = {e.name: e for e in corpus.ENTRIES}
    jobs = []
    for name in names:
        e = by_name[name]
        job = {"entry": e, "theory": terms.load_theory(corpus.path(e.theory)),
               "left": syntax.parse(corpus.read(e.left))}
        if e.right is not None:
            job["right"] = syntax.parse(corpus.read(e.right))
        if e.formula is not None:
            job["formula"] = logic.parse_formula(corpus.read(e.formula))
        jobs.append(job)
    return jobs


def _run_entry(job, mode, tracer, bisim, logic):
    """Run one check (and its validation); return the entry's row."""
    e = job["entry"]
    th = job["theory"]
    pi = e.kind == "bisim-pi"
    cfg = bisim.CheckConfig(recipe_depth=e.recipe_depth, max_depth=e.max_depth,
                            mode="late-pi" if pi else "early-applied")
    row = {"name": e.name, "expect": e.expect, "got": None, "ok": False,
           "check_s": 0.0, "validate_s": 0.0, "witness_pairs": None,
           "strategy_depth": None, "error": None}
    phase = tracer.phase if tracer is not None else (lambda _name: nullcontext())
    if tracer is not None:
        tracer.entry = row
    left, right = job["left"], job.get("right")
    try:
        t0 = time.perf_counter()
        with phase("phase.check"):
            if e.kind == "model-check":
                result = logic.check(left, job["formula"], th, cfg)
            elif e.expect == "distinguished":
                result = logic.distinguish(left, right, th, cfg)
            elif pi:
                result = bisim.open_bisim_pi_check(left, right, th, cfg)
            else:
                result = bisim.quasi_open_check(left, right, th, cfg)
        row["check_s"] = time.perf_counter() - t0

        if e.kind == "model-check":
            row["got"] = result.value
            row["ok"] = row["got"] == e.expect
        elif e.expect == "distinguished":
            if isinstance(result, tuple):
                row["got"] = "distinguished"
            elif isinstance(result, logic.NotDistinguished):
                row["got"] = "bisimilar"
            else:
                row["got"] = "unknown"
            row["ok"] = row["got"] == e.expect
            if row["ok"] and mode == "full":
                # re-validate the formula pair the way a user would, with
                # the model checker: each formula holds on its own side only
                fl, fr = result
                sat = logic.check_pi if pi else logic.check
                t1 = time.perf_counter()
                with phase("phase.validate"):
                    holds = (sat(left, fl, th, cfg) is logic.Sat.SAT
                             and sat(right, fl, th, cfg) is logic.Sat.UNSAT
                             and sat(right, fr, th, cfg) is logic.Sat.SAT
                             and sat(left, fr, th, cfg) is logic.Sat.UNSAT)
                row["validate_s"] = time.perf_counter() - t1
                if not holds:
                    row["ok"] = False
                    row["error"] = "formula pair does not distinguish"
        else:
            if isinstance(result, bisim.Bisimilar):
                row["got"] = "bisimilar"
                row["witness_pairs"] = len(result.witness.pairs)
            elif isinstance(result, bisim.DistinguishedVerdict):
                row["got"] = "distinguished"
            else:
                row["got"] = "unknown"
            row["ok"] = row["got"] == e.expect
            if row["ok"] and mode == "full":
                t1 = time.perf_counter()
                with phase("phase.validate"):
                    valid = bisim.validate_witness(result.witness, th, cfg)
                row["validate_s"] = time.perf_counter() - t1
                if not valid:
                    row["ok"] = False
                    row["error"] = "witness does not validate"
    except Exception as exc:  # every failure is counted, never fatal
        row["ok"] = False
        row["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return row


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "check-only", "setup-only"),
                    default="full")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import openbisim
    from openbisim import bisim, corpus, kernel, logic, syntax, terms

    src = os.path.join(ROOT, "src", "openbisim")
    if os.path.dirname(os.path.abspath(openbisim.__file__)) != src:
        raise SystemExit(f"openbisim imported from {openbisim.__file__}, not {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    names = entry_order(args.workload, args.seed)
    jobs = _prepare(names, corpus, syntax, terms, logic)
    setup_s = (time.monotonic_ns() - args.launched) / 1e9

    rows = []
    while args.mode != "setup-only" and jobs:
        # start each check from a collected heap, without the theory, inputs
        # and garbage of the checks before it, as a process that ran only
        # this entry would; the collection is not timed
        gc.collect()
        rows.append(_run_entry(jobs.pop(0), args.mode, tracer, bisim, logic))

    out = {
        "setup_s": setup_s,
        "check_s": sum(r["check_s"] for r in rows),
        "validate_s": sum(r["validate_s"] for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "entries": rows,
        "kernel": kernel.IMPLEMENTATION,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
