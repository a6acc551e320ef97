"""Layer spans recorded from outside the program.

The tracer rebinds entry points of the ``openbisim`` modules to timing
wrappers.  A function imported by name into several modules (``normalize``
lives in ``syntax``, ``frames``, ``lts``, ``bisim`` and ``logic`` too) is
rebound in every module that holds it, so no call path escapes.

Spans nest on one stack; a span's self time is its duration minus the time
covered by its child spans, so recursive spans (``_expand`` through
``_child``, ``_build_strategy``) are counted by self time only.  Generators
are timed over their iteration, one span per ``next``.  Spans are folded
into per-name call counts and self times in memory as they close; nothing is
written until the sample ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute or Class.method, span name, kind)
#   kind "span": a timed span
#   kind "gen": a generator timed over its iteration
#   kind "expand": a timed span, except inside validate_witness, where the
#                  call folds into the validation span (no span of its own)
#   kind "validate": a timed span that marks the validation region
#   kind "payload": a timed span that also records the result length
#   kind "verdict": no span; records the verdict's witness size and
#                   strategy depth for the current entry
TARGETS = (
    ("openbisim.syntax", "parse", "syntax.parse", "span"),
    ("openbisim.syntax", "make_extended", "syntax.make_extended", "span"),
    ("openbisim.syntax", "canonical_key", "syntax.canonical_key", "span"),
    ("openbisim.syntax", "substitute", "syntax.substitute", "span"),
    ("openbisim.terms", "normalize", "terms.normalize", "span"),
    ("openbisim.kernel", "normalize", "terms.rewrite_kernel", "span"),
    ("openbisim.terms", "unify_mod", "terms.unify_mod", "span"),
    ("openbisim.terms", "syntactic_unify", "terms.syntactic_unify", "span"),
    ("openbisim.frames", "static_equiv", "frames.static_equiv", "span"),
    ("openbisim.frames", "_static_equiv", "frames.static_miss", "span"),
    ("openbisim.frames", "enumerate_recipes", "frames.recipe_enum", "gen"),
    ("openbisim.frames", "deducible", "frames.deducible", "span"),
    ("openbisim.lts", "early_transitions", "lts.early_transitions", "span"),
    ("openbisim.lts", "late_transitions", "lts.late_transitions", "span"),
    ("openbisim.bisim", "_EarlyGame._expand", "bisim.expand", "expand"),
    ("openbisim.bisim", "_PiGame._expand", "bisim.pi_expand", "expand"),
    ("openbisim.bisim", "representative_worlds", "bisim.worlds", "span"),
    ("openbisim.bisim", "_representative_worlds", "bisim.worlds_miss", "span"),
    ("openbisim.bisim", "apply_world_move", "bisim.apply_world_move", "span"),
    ("openbisim.bisim", "_payload_candidates", "bisim.payload", "payload"),
    ("openbisim.bisim", "_payload_candidates_raw", "bisim.payload_miss", "span"),
    ("openbisim.bisim", "_EarlyGame.solve", "bisim.solve", "span"),
    ("openbisim.bisim", "_PiGame.solve", "bisim.solve", "span"),
    ("openbisim.bisim", "_build_strategy", "bisim.strategy", "span"),
    ("openbisim.bisim", "_build_pi_strategy", "bisim.strategy", "span"),
    ("openbisim.bisim", "validate_witness", "bisim.validate", "validate"),
    ("openbisim.bisim", "quasi_open_check", None, "verdict"),
    ("openbisim.bisim", "open_bisim_pi_check", None, "verdict"),
    ("openbisim.logic", "check", "logic.check", "span"),
    ("openbisim.logic", "check_pi", "logic.check", "span"),
    ("openbisim.logic", "distinguish", "logic.distinguish", "span"),
)

PHASES = ("phase.check", "phase.validate")


class Tracer:
    def __init__(self) -> None:
        # one [child time] cell per open span; the base cell absorbs
        # top-level spans (setup parsing)
        self._stack: list[list[float]] = [[0.0]]
        self.totals: dict[str, list] = {}      # name -> [calls, self seconds]
        self.payload_len = 0
        self.missing: list[str] = []
        self._validating = 0
        self.entry: dict = {}                  # row of the entry being run

    def _record(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0])

    def _span(self, fn, rec):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                rec[0] += 1
                rec[1] += dt - cell[0]
        return wrapper

    def _gen(self, fn, rec):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            rec[0] += 1
            while True:
                cell = [0.0]
                stack.append(cell)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    rec[1] += dt - cell[0]
                yield item
        return wrapper

    def _wrap(self, fn, name: str, kind: str):
        if kind == "gen":
            return self._gen(fn, self._record(name))
        if kind == "verdict":
            def verdict_probe(*args, **kwargs):
                verdict = fn(*args, **kwargs)
                witness = getattr(verdict, "witness", None)
                if witness is not None:
                    self.entry["witness_pairs"] = len(witness.pairs)
                strategy = getattr(verdict, "strategy", None)
                if strategy is not None:
                    from openbisim.bisim import strategy_depth
                    self.entry["strategy_depth"] = strategy_depth(strategy)
                return verdict
            return verdict_probe
        timed = self._span(fn, self._record(name))
        if kind == "expand":
            def expand(*args, **kwargs):
                if self._validating:
                    return fn(*args, **kwargs)
                return timed(*args, **kwargs)
            return expand
        if kind == "validate":
            def validate(*args, **kwargs):
                self._validating += 1
                try:
                    return timed(*args, **kwargs)
                finally:
                    self._validating -= 1
            return validate
        if kind == "payload":
            def payload(*args, **kwargs):
                out = timed(*args, **kwargs)
                self.payload_len += len(out)
                return out
            return payload
        return timed

    def install(self) -> None:
        """Rebind every target in every loaded ``openbisim`` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "openbisim" or n.startswith("openbisim.")) and m]
        for mod_name, attr, name, kind in TARGETS:
            owner = sys.modules.get(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, name, kind)
            if cls_name:
                setattr(owner, meth, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    @contextmanager
    def phase(self, name: str):
        """A benchmark-level span around one check or one validation; its
        self time is the part no layer span covers."""
        rec = self._record(name)
        stack = self._stack
        cell = [0.0]
        stack.append(cell)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            stack[-1][0] += dt
            rec[0] += 1
            rec[1] += dt - cell[0]

    def snapshot(self) -> dict:
        return {
            "spans": {k: {"calls": c, "self_s": s} for k, (c, s) in self.totals.items()},
            "payload_len": self.payload_len,
            "missing": list(self.missing),
        }


def layer_metrics(trace: dict, entries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced sample."""
    spans = trace["spans"]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def hit_ratio(outer: str, miss: str) -> float:
        total = calls(outer)
        return 1.0 - calls(miss) / total if total else 0.0

    payload_calls = calls("bisim.payload")
    m = {
        "syntax.parse.self_s": self_s("syntax.parse"),
        "syntax.make_extended.calls": calls("syntax.make_extended"),
        "syntax.make_extended.self_s": self_s("syntax.make_extended"),
        "syntax.canonical_key.calls": calls("syntax.canonical_key"),
        "syntax.canonical_key.self_s": self_s("syntax.canonical_key"),
        "syntax.substitute.self_s": self_s("syntax.substitute"),
        "terms.normalize.calls": calls("terms.normalize"),
        "terms.normalize.self_s": self_s("terms.normalize"),
        "terms.rewrite_kernel.calls": calls("terms.rewrite_kernel"),
        "terms.rewrite_kernel.self_s": self_s("terms.rewrite_kernel"),
        "terms.nf_hit_ratio": hit_ratio("terms.normalize", "terms.rewrite_kernel"),
        "terms.unify_mod.calls": calls("terms.unify_mod"),
        "terms.unify_mod.self_s": self_s("terms.unify_mod"),
        "terms.syntactic_unify.calls": calls("terms.syntactic_unify"),
        "terms.syntactic_unify.self_s": self_s("terms.syntactic_unify"),
        "frames.static_equiv.calls": calls("frames.static_equiv"),
        "frames.static_equiv.self_s": self_s("frames.static_equiv", "frames.static_miss"),
        "frames.static_hit_ratio": hit_ratio("frames.static_equiv", "frames.static_miss"),
        "frames.recipe_enum.self_s": self_s("frames.recipe_enum"),
        "frames.deducible.calls": calls("frames.deducible"),
        "frames.deducible.self_s": self_s("frames.deducible"),
        "lts.early_transitions.calls": calls("lts.early_transitions"),
        "lts.early_transitions.self_s": self_s("lts.early_transitions"),
        "lts.late_transitions.calls": calls("lts.late_transitions"),
        "lts.late_transitions.self_s": self_s("lts.late_transitions"),
        "bisim.nodes_expanded": calls("bisim.expand"),
        "bisim.pi_nodes_expanded": calls("bisim.pi_expand"),
        "bisim.expand.self_s": self_s("bisim.expand", "bisim.pi_expand"),
        "bisim.worlds.calls": calls("bisim.worlds"),
        "bisim.worlds.self_s": self_s("bisim.worlds", "bisim.worlds_miss"),
        "bisim.worlds_hit_ratio": hit_ratio("bisim.worlds", "bisim.worlds_miss"),
        "bisim.apply_world_move.calls": calls("bisim.apply_world_move"),
        "bisim.apply_world_move.self_s": self_s("bisim.apply_world_move"),
        "bisim.payload.calls": payload_calls,
        "bisim.payload.self_s": self_s("bisim.payload", "bisim.payload_miss"),
        "bisim.payload_hit_ratio": hit_ratio("bisim.payload", "bisim.payload_miss"),
        "bisim.payload_len_mean": trace["payload_len"] / payload_calls if payload_calls else 0.0,
        "bisim.solve.self_s": self_s("bisim.solve"),
        "bisim.strategy.self_s": self_s("bisim.strategy"),
        "bisim.strategy_depth": sum(e.get("strategy_depth") or 0 for e in entries),
        "bisim.validate.self_s": self_s("bisim.validate"),
        "bisim.witness_pairs": sum(e.get("witness_pairs") or 0 for e in entries),
        "logic.check.calls": calls("logic.check"),
        "logic.check.self_s": self_s("logic.check"),
        "logic.distinguish.self_s": self_s("logic.distinguish"),
        "trace.unattributed_s": self_s(*PHASES),
    }
    return m
