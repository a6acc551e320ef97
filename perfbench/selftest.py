"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

1. The tracer leaves no original entry point bound in any ``openbisim``
   module, and a generator span is timed over its iteration.
2. Verdicts, witness sizes and strategy depths of the ``prove-refute``
   workload are identical under two seeds whose entry orders differ.  An
   order-dependent verdict (state leaking from one check into the next
   inside a process) fails this test.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def check_tracer() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import openbisim.bisim, openbisim.logic  # noqa: E401,F401  load every layer
    from openbisim import corpus, frames, terms
    from openbisim.syntax import promote, parse
    from tracer import TARGETS, Tracer

    originals = {}
    for mod_name, attr, _name, _kind in TARGETS:
        owner = sys.modules[mod_name]
        for part in attr.split("."):
            owner = getattr(owner, part)
        originals[id(owner)] = f"{mod_name}.{attr}"
    tracer = Tracer()
    tracer.install()
    problems = [f"tracer target missing: {m}" for m in tracer.missing]
    for name, mod in list(sys.modules.items()):
        if not name.startswith("openbisim") or mod is None:
            continue
        for key, value in vars(mod).items():
            if id(value) in originals:
                problems.append(f"{name}.{key} still bound to {originals[id(value)]}")
        for cls in (getattr(mod, "_EarlyGame", None), getattr(mod, "_PiGame", None)):
            for key, value in vars(cls or object).items():
                if id(value) in originals:
                    problems.append(f"{name}.{cls.__name__}.{key} not rebound")

    th = terms.load_theory(corpus.path("dy-asym.thy"))
    ep = promote(parse(corpus.read("server_a.pi")))
    frame = frames.Frame(frozenset(ep.privates), ep.frame, ep.frame_order)
    recipes = list(frames.enumerate_recipes(frame, th, 2))
    spans = tracer.snapshot()["spans"]
    enum = spans.get("frames.recipe_enum", {"calls": 0, "self_s": 0.0})
    if not recipes or enum["calls"] != 1 or enum["self_s"] <= 0.0:
        problems.append(f"generator span not timed over iteration: {enum}")
    if spans.get("terms.normalize", {}).get("calls", 0) == 0:
        problems.append("normalize calls made inside frames were not traced")
    return problems


def traced_rows(workload: str, seed: int) -> tuple[list[str], dict]:
    argv = [sys.executable, os.path.join(HERE, "sample.py"), "--workload",
            workload, "--seed", str(seed), "--trace",
            "--launched", str(time.monotonic_ns())]
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env.pop("PYTHONPATH", None)
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=170, check=True).stdout
    rows = json.loads(out.strip().splitlines()[-1])["entries"]
    order = [r["name"] for r in rows]
    return order, {r["name"]: (r["got"], r["ok"], r["witness_pairs"],
                               r["strategy_depth"]) for r in rows}


def check_seed_independence() -> list[str]:
    workload = "prove-refute"
    problems = []
    (order_a, rows_a), (order_b, rows_b) = [traced_rows(workload, seed) for seed in SEEDS]
    if order_a == order_b:
        problems.append(f"{workload}: seeds {SEEDS} give the same order")
    for name in rows_a:
        if rows_a[name] != rows_b[name]:
            problems.append(f"{workload}/{name}: {rows_a[name]} vs {rows_b[name]}"
                            " (got, ok, witness pairs, strategy depth)")
        if not rows_a[name][1]:
            problems.append(f"{workload}/{name}: failed ({rows_a[name]})")
    return problems


def main() -> int:
    problems = check_tracer() + check_seed_independence()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
