"""Command-line front end.

Subcommands: check-bisim, check-static, model-check, distinguish, trace,
fmt, corpus.  Exit codes: verdicts use 0/1/2 (yes/no/unknown), usage errors
exit 64, unreadable or unparsable inputs (including inputs nested deeper
than the parsers' limit) 66, internal self-check failures and recursion
too deep for the stack 70.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Optional

from . import corpus as corpus_pkg
from .bisim import (
    Bisimilar, CapabilityLeaf, CheckConfig, DistinguishedVerdict, MoveNode,
    RefineNode, RelationWitness, StaticLeaf, Unknown, open_bisim_pi_check,
    quasi_open_check, validate_witness,
)
from .frames import Distinguished, Equivalent, Frame, static_equiv
from .lts import History, NotPiFragment, ReplicationUnbounded, early_transitions
from .logic import (
    NotDistinguished, Sat, SelfCheckFailed, UnhousedVariable, check, check_pi,
    distinguish, parse_formula, pretty_formula,
)
from .names import NameGen
from .syntax import (
    ExtendedProcess, ParseError, make_extended, parse, parse_process, pretty,
    pretty_extended, promote,
)
from .terms import (
    TheoryError, Theory, Var, eq_mod, load_theory, parse_term, render_term,
)

EX_OK, EX_NO, EX_UNKNOWN = 0, 1, 2
EX_USAGE, EX_NOINPUT, EX_SOFTWARE = 64, 66, 70


def _load_theory(path: str) -> Theory:
    try:
        return load_theory(path)
    except OSError as exc:
        _die(EX_NOINPUT, f"cannot read theory: {exc}")
    except TheoryError as exc:
        _die(EX_NOINPUT, f"bad theory file {path}: {exc}")


def _load_process(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        _die(EX_NOINPUT, f"cannot read process: {exc}")
    except ParseError as exc:
        _die(EX_NOINPUT, f"{path}: {exc}")


def _die(code: int, message: str):
    print(message, file=sys.stderr)
    sys.exit(code)


def _config(args) -> CheckConfig:
    return CheckConfig(
        max_depth=args.depth,
        recipe_depth=args.recipe_depth,
        unfold=getattr(args, "unfold", 0),
        mode="late-pi" if getattr(args, "late_pi", False) else "early-applied",
    )


def _with_bound(th: Theory, args) -> Theory:
    bound = getattr(args, "unify_bound", None)
    if bound is None:
        return th
    return Theory(
        name=th.name, signature=dict(th.signature), rules=th.rules,
        unification_bound=bound, rewrite_ceiling=th.rewrite_ceiling,
        saturation_complete=th.saturation_complete,
    )


# ---------------------------------------------------------------------------
# Witness / strategy serialization


def render_witness(w: RelationWitness) -> str:
    lines = ["witness v1", f"mode {w.mode}"]
    lines.append(f"root {pretty_extended(w.root[0])} ~~ {pretty_extended(w.root[1])}")
    for a, b in w.pairs:
        lines.append(f"pair {pretty_extended(a)} ~~ {pretty_extended(b)}")
    return "\n".join(lines) + "\n"


def parse_witness(text: str, cfg: CheckConfig) -> RelationWitness:
    """Read a rendered witness; a file of another shape raises ParseError."""
    raw = text.splitlines()
    lines = [(n, l) for n, l in enumerate(raw, 1) if l.strip()]
    end = (len(raw) + 1, "")
    (n0, first), (n1, second) = (lines + [end, end])[:2]
    if first != "witness v1":
        raise ParseError(n0, 1, "'witness v1'", first)
    if not second.startswith("mode "):
        raise ParseError(n1, 1, "'mode <mode>'", second)
    root = None
    pairs = []
    for n, line in lines[2:]:
        tag, _, rest = line.partition(" ")
        if tag not in ("root", "pair"):
            raise ParseError(n, 1, "'root' or 'pair'", tag)
        pair = _parse_pair(rest, n, len(tag) + 2)
        if tag == "root":
            root = pair
        else:
            pairs.append(pair)
    if root is None:
        raise ParseError(end[0], 1, "a 'root' line")
    return RelationWitness(tuple(pairs), root, second[len("mode "):], cfg)


def _extended(text: str) -> ExtendedProcess:
    return promote(parse(text))


def _parse_pair(text: str, n: int, column: int, read=_extended):
    """The two processes of `P ~~ Q`, which starts at `column` of line `n`
    of a witness or strategy file, each read by `read`; errors point into
    that file."""
    sides = text.split(" ~~ ")
    if len(sides) != 2:
        raise ParseError(n, column, "'P ~~ Q'", text)
    out = []
    for side in sides:
        try:
            out.append(read(side))
        except ParseError as exc:
            raise ParseError(n, column + exc.column - 1, exc.expected, exc.found) from None
        column += len(side) + len(" ~~ ")
    return out[0], out[1]


def render_strategy(s, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(s, StaticLeaf):
        at = ""
        if s.node:
            at = f" at {pretty_extended(s.node[0])} ~~ {pretty_extended(s.node[1])}"
        return (f"{pad}static {render_term(s.left_recipe)} vs "
                f"{render_term(s.right_recipe)} equal-on {s.equal_on}{at}\n")
    if isinstance(s, CapabilityLeaf):
        at = ""
        if s.node and len(s.node) == 2:
            at = f" at {pretty_extended(s.node[0])} ~~ {pretty_extended(s.node[1])}"
        elif s.node and len(s.node) == 3:
            h, p, q = s.node
            at = f" at-pi {h.rendered()} : {pretty(p)} ~~ {pretty(q)}"
        side = "left" if s.side == 0 else "right"
        return f"{pad}capability {side} {s.label}{at}\n"
    if isinstance(s, RefineNode):
        return f"{pad}refine {s.move.describe()}\n" + render_strategy(s.child, indent + 1)
    if isinstance(s, MoveNode):
        side = "left" if s.side == 0 else "right"
        out = f"{pad}move {side} {s.label}\n"
        for c in s.children:
            out += render_strategy(c, indent + 1)
        return out
    raise TypeError(s)


def validate_strategy_text(text: str, th: Theory, cfg: CheckConfig) -> bool:
    """Re-check every leaf of an emitted strategy: static leaves must still
    distinguish their frames, capability leaves must still be one-sided
    (late-pi ones under their history).  A leaf line of another shape
    raises ParseError."""
    ok = True
    checked = 0
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        column = raw.index(line) + 1 if line else 1
        if line.startswith("static ") and " at " in line:
            head, at = line.split(" at ", 1)
            recipes, _, equal_on = head[len("static "):].partition(" equal-on ")
            l_txt, _, r_txt = recipes.partition(" vs ")
            if equal_on not in ("a", "b") or not r_txt:
                raise ParseError(n, column, "'static R vs R equal-on a|b at P ~~ Q'", line)
            try:
                l, r = parse_term(l_txt), parse_term(r_txt)
            except TheoryError:
                raise ParseError(n, column, "'R vs R' of two recipes", recipes) from None
            a, b = _parse_pair(at, n, column + len(head) + len(" at "))
            ea = eq_mod(a.frame(l), a.frame(r), th)
            eb = eq_mod(b.frame(l), b.frame(r), th)
            checked += 1
            if ea == eb or (equal_on == "a") != ea:
                ok = False
        elif line.startswith("capability ") and (" at " in line or " at-pi " in line):
            sep = " at " if " at " in line else " at-pi "
            head, at = line.split(sep, 1)
            bits = head.split(" ", 2)
            if len(bits) < 3 or bits[1] not in ("left", "right"):
                raise ParseError(n, column, f"'capability left|right LABEL{sep}P ~~ Q'", line)
            side = 0 if bits[1] == "left" else 1
            label = bits[2]
            start = column + len(head) + len(sep)
            history = None
            if sep == " at ":
                a, b = _parse_pair(at, n, start)
            else:
                h_txt, colon, pair = at.partition(" : ")
                if not colon:
                    raise ParseError(n, start, "'H : P ~~ Q'", at)
                history = _parse_history(h_txt, n, start)
                a, b = _parse_pair(pair, n, start + len(h_txt) + len(" : "), parse_process)
            mover, other = (a, b) if side == 0 else (b, a)
            checked += 1
            if (not _has_label(mover, label, th, cfg, history)
                    or _has_label(other, label, th, cfg, history)):
                ok = False
    return ok and checked > 0


def _parse_history(text: str, n: int, column: int) -> History:
    """A late-pi history as History.rendered() prints it: `e`, or events
    `M^i` (an input) and `x^o` (an extruded name) joined by '.'."""
    try:
        events = []
        for event in ([] if text == "e" else text.split(".")):
            term_txt, _, kind = event.rpartition("^")
            term = parse_term(term_txt)
            if kind not in ("i", "o") or (kind == "o" and not isinstance(term, Var)):
                raise ValueError(event)
            events.append((kind, term))
        return History(tuple(events))   # raises ValueError on a repeated x^o
    except (TheoryError, ValueError):
        raise ParseError(n, column, "a history 'e' or 'M^i.x^o...' with distinct x",
                         text) from None


def _has_label(p, label: str, th: Theory, cfg: CheckConfig,
               history: Optional[History] = None) -> bool:
    """Whether p has a transition with the label as a strategy prints it:
    whether the model checker finds <label>tt satisfied, with a history
    by the late-pi checker."""
    try:
        formula = parse_formula(f"<{label}>tt")
        if history is None:
            return check(p, formula, th, cfg) is Sat.SAT
    except (ValueError, TheoryError, UnhousedVariable):
        return False
    try:
        return check_pi(p, formula, th, cfg, history) is Sat.SAT
    except (TheoryError, NotPiFragment):
        return False


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check_bisim(args) -> int:
    th = _with_bound(_load_theory(args.theory), args)
    cfg = _config(args)
    left, right = _load_process(args.left), _load_process(args.right)

    if args.validate:
        try:
            with open(args.validate, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            _die(EX_NOINPUT, str(exc))
        try:
            if text.startswith("witness"):
                okay = validate_witness(parse_witness(text, cfg), th, cfg)
            else:
                okay = validate_strategy_text(text, th, cfg)
        except ParseError as exc:
            _die(EX_NOINPUT, f"{args.validate}: {exc}")
        print("valid" if okay else "invalid")
        return EX_OK if okay else EX_NO

    try:
        if cfg.mode == "late-pi":
            verdict = open_bisim_pi_check(left, right, th, cfg)
        else:
            verdict = quasi_open_check(left, right, th, cfg)
    except ReplicationUnbounded as exc:
        _die(EX_USAGE, f"{exc} (use --unfold)")
    except NotPiFragment as exc:
        _die(EX_USAGE, str(exc))
    except ValueError as exc:
        _die(EX_USAGE, str(exc))

    if isinstance(verdict, Bisimilar):
        msg = {"verdict": "bisimilar", "witness-size": len(verdict.witness.pairs)}
        if args.emit_witness:
            with open(args.emit_witness, "w", encoding="utf-8") as fh:
                fh.write(render_witness(verdict.witness))
        _emit(args, msg, f"bisimilar (witness of {len(verdict.witness.pairs)} pairs)")
        return EX_OK
    if isinstance(verdict, DistinguishedVerdict):
        text = render_strategy(verdict.strategy)
        if args.emit_strategy:
            with open(args.emit_strategy, "w", encoding="utf-8") as fh:
                fh.write(text)
        _emit(args, {"verdict": "distinguished", "strategy": text},
              "distinguished\n" + text.rstrip())
        return EX_NO
    _emit(args, {"verdict": "unknown", "reason": verdict.reason},
          f"unknown: {verdict.reason}")
    return EX_UNKNOWN


def cmd_check_static(args) -> int:
    th = _with_bound(_load_theory(args.theory), args)
    a, b = _load_process(args.left), _load_process(args.right)
    fa = _to_frame(a)
    fb = _to_frame(b)
    try:
        verdict = static_equiv(fa, fb, th, depth=args.recipe_depth)
    except ValueError as exc:
        _die(EX_USAGE, str(exc))
    if isinstance(verdict, Equivalent):
        _emit(args, {"verdict": "equivalent"}, "statically equivalent")
        return EX_OK
    if isinstance(verdict, Distinguished):
        l, r = verdict.left_recipe, verdict.right_recipe
        payload = {
            "verdict": "distinguished",
            "left-recipe": render_term(l),
            "right-recipe": render_term(r),
            "left-evaluations": [render_term(fa.image(l, th)), render_term(fa.image(r, th))],
            "right-evaluations": [render_term(fb.image(l, th)), render_term(fb.image(r, th))],
        }
        text = (
            f"distinguished by {render_term(l)} vs {render_term(r)}\n"
            f"  left frame:  {render_term(fa.image(l, th))}  vs  {render_term(fa.image(r, th))}\n"
            f"  right frame: {render_term(fb.image(l, th))}  vs  {render_term(fb.image(r, th))}"
        )
        _emit(args, payload, text)
        return EX_NO
    _emit(args, {"verdict": "unknown-at-depth", "depth": verdict.depth},
          f"unknown at recipe depth {verdict.depth}")
    return EX_UNKNOWN


def _to_frame(p) -> Frame:
    ep = promote(p)
    return Frame(frozenset(ep.privates), ep.frame, ep.frame_order)


def cmd_model_check(args) -> int:
    th = _with_bound(_load_theory(args.theory), args)
    cfg = _config(args)
    proc = _load_process(args.process)
    try:
        with open(args.formula, "r", encoding="utf-8") as fh:
            formula = parse_formula(fh.read().strip())
    except OSError as exc:
        _die(EX_NOINPUT, str(exc))
    except (ValueError, TheoryError) as exc:   # TheoryError: a bad term
        _die(EX_NOINPUT, f"{args.formula}: {exc}")
    if cfg.mode == "late-pi":
        result = check_pi(proc, formula, th, cfg)
    else:
        result = check(proc, formula, th, cfg)
    _emit(args, {"verdict": result.value}, result.value)
    return {"sat": EX_OK, "unsat": EX_NO, "unknown": EX_UNKNOWN}[result.value]


def cmd_distinguish(args) -> int:
    th = _with_bound(_load_theory(args.theory), args)
    cfg = _config(args)
    left, right = _load_process(args.left), _load_process(args.right)
    try:
        result = distinguish(left, right, th, cfg)
    except SelfCheckFailed as exc:
        _die(EX_SOFTWARE, f"internal self-check failure: {exc}")
    if isinstance(result, NotDistinguished):
        _emit(args, {"verdict": "not-distinguished"}, "not distinguished")
        return EX_NO
    if isinstance(result, Unknown):
        _emit(args, {"verdict": "unknown", "reason": result.reason},
              f"unknown: {result.reason}")
        return EX_UNKNOWN
    fl, fr = result
    payload = {"verdict": "distinguished",
               "left-biased": pretty_formula(fl), "right-biased": pretty_formula(fr)}
    _emit(args, payload,
          f"left-biased:  {pretty_formula(fl)}\nright-biased: {pretty_formula(fr)}")
    return EX_OK


def cmd_trace(args) -> int:
    th = _with_bound(_load_theory(args.theory), args)
    proc = _load_process(args.process)
    gen = NameGen()
    ep = promote(proc)
    ep = make_extended(ep.privates, ep.frame, ep.body, th, ep.frame_order)
    lines: list[str] = []

    def walk(state, depth):
        pad = "  " * depth
        if depth == 0:
            lines.append(pretty_extended(state))
        if depth >= args.depth:
            return
        try:
            ts = early_transitions(frozenset(), state, th, gen,
                                   allow_replication=args.unfold > 0)
        except ReplicationUnbounded:
            lines.append(pad + "  (replication: pass --unfold to expand)")
            return
        for t in ts.transitions:
            lines.append(f"{pad}  --{t.label.rendered()}--> {pretty_extended(t.target)}")
            walk(t.target, depth + 1)
        for schema in ts.inputs:
            payload = gen.fresh("z")
            target = schema.instantiate(parse_term(payload))
            lines.append(
                f"{pad}  --{render_term(schema.channel)}?{payload}--> {pretty_extended(target)}"
            )
            walk(target, depth + 1)

    walk(ep, 0)
    print("\n".join(lines))
    return EX_OK


def cmd_fmt(args) -> int:
    p = _load_process(args.process)
    if isinstance(p, ExtendedProcess):
        print(pretty_extended(p))
    else:
        print(pretty(p))
    return EX_OK


def cmd_corpus(args) -> int:
    entries = list(corpus_pkg.ENTRIES)
    seed = os.environ.get("OPENBISIM_SEED")
    if seed is not None:
        random.Random(int(seed)).shuffle(entries)
    rows = []
    failures = 0
    for e in entries:
        if args.only and args.only not in e.name:
            continue
        t0 = time.perf_counter()
        got, note = _run_entry(e)
        dt = time.perf_counter() - t0
        status = "PASS" if got == e.expect else "FAIL"
        if status == "FAIL":
            failures += 1
        rows.append((status, e.name, e.kind, e.expect, got, f"{dt:.2f}s"))
    width = max((len(r[1]) for r in rows), default=10)
    for status, name, kind, expect, got, dt in rows:
        print(f"{status}  {name:<{width}}  {kind:<11} expected={expect:<13} got={got:<13} {dt}")
    if args.json:
        print(json.dumps([
            {"name": n, "status": s, "kind": k, "expected": e, "got": g, "time": t}
            for s, n, k, e, g, t in rows
        ]))
    print(f"{len(rows) - failures}/{len(rows)} corpus entries passed")
    return EX_OK if failures == 0 else EX_NO


def _run_entry(e) -> tuple[str, str]:
    th = load_theory(corpus_pkg.path(e.theory))
    cfg = CheckConfig(recipe_depth=e.recipe_depth, max_depth=e.max_depth,
                      mode="late-pi" if e.kind == "bisim-pi" else "early-applied")
    left = parse(corpus_pkg.read(e.left))
    if e.kind in ("bisim", "bisim-pi"):
        right = parse(corpus_pkg.read(e.right))
        if e.kind == "bisim-pi":
            verdict = open_bisim_pi_check(left, right, th, cfg)
        else:
            verdict = quasi_open_check(left, right, th, cfg)
        if isinstance(verdict, Bisimilar):
            if not validate_witness(verdict.witness, th, cfg):
                return "invalid-witness", ""
            return "bisimilar", ""
        if isinstance(verdict, DistinguishedVerdict):
            return "distinguished", ""
        return "unknown", verdict.reason
    if e.kind == "model-check":
        formula = parse_formula(corpus_pkg.read(e.formula))
        return check(left, formula, th, cfg).value, ""
    if e.kind == "static":
        right = parse(corpus_pkg.read(e.right))
        verdict = static_equiv(_to_frame(left), _to_frame(right), th)
        if isinstance(verdict, Equivalent):
            return "equivalent", ""
        if isinstance(verdict, Distinguished):
            return "distinguished", ""
        return "unknown", ""
    raise ValueError(e.kind)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------


def _add_common(sub, recipe_depth_default=2):
    sub.add_argument("--depth", type=int, default=64, help="max game depth")
    sub.add_argument("--recipe-depth", type=int, default=recipe_depth_default,
                     help="recipe enumeration depth")
    sub.add_argument("--unify-bound", type=int, default=None,
                     help="override the theory's narrowing depth")
    sub.add_argument("--json", action="store_true", help="structured output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="openbisim",
        description="Symbolic equivalence checker and modal-logic model "
                    "checker for the finite applied pi-calculus with mismatch",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    cb = sp.add_parser("check-bisim", help="decide quasi-open bisimilarity")
    cb.add_argument("left")
    cb.add_argument("right")
    cb.add_argument("theory")
    cb.add_argument("--late-pi", action="store_true",
                    help="history-indexed open bisimilarity (pi fragment)")
    cb.add_argument("--unfold", type=int, default=0,
                    help="replication unfolding bound")
    cb.add_argument("--emit-witness", metavar="PATH")
    cb.add_argument("--emit-strategy", metavar="PATH")
    cb.add_argument("--validate", metavar="PATH",
                    help="re-validate an emitted witness/strategy file")
    _add_common(cb)
    cb.set_defaults(fn=cmd_check_bisim)

    cs = sp.add_parser("check-static", help="decide static equivalence of frames")
    cs.add_argument("left")
    cs.add_argument("right")
    cs.add_argument("theory")
    _add_common(cs, recipe_depth_default=3)
    cs.set_defaults(fn=cmd_check_static)

    mc = sp.add_parser("model-check", help="check a modal formula")
    mc.add_argument("process")
    mc.add_argument("formula")
    mc.add_argument("theory")
    mc.add_argument("--late-pi", action="store_true")
    _add_common(mc)
    mc.set_defaults(fn=cmd_model_check)

    di = sp.add_parser("distinguish", help="emit distinguishing formulas")
    di.add_argument("left")
    di.add_argument("right")
    di.add_argument("theory")
    di.add_argument("--late-pi", action="store_true")
    _add_common(di)
    di.set_defaults(fn=cmd_distinguish)

    tr = sp.add_parser("trace", help="print the transition tree")
    tr.add_argument("process")
    tr.add_argument("theory")
    tr.add_argument("--depth", type=int, default=3)
    tr.add_argument("--unfold", type=int, default=0)
    tr.add_argument("--recipe-depth", type=int, default=2)
    tr.add_argument("--unify-bound", type=int, default=None)
    tr.add_argument("--json", action="store_true")
    tr.set_defaults(fn=cmd_trace)

    fm = sp.add_parser("fmt", help="parse and pretty-print a process file")
    fm.add_argument("process")
    fm.set_defaults(fn=cmd_fmt)

    co = sp.add_parser("corpus", help="run the bundled acceptance corpus")
    co.add_argument("--only", default="", help="substring filter on entry names")
    co.add_argument("--json", action="store_true")
    co.set_defaults(fn=cmd_corpus)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    sys.setrecursionlimit(100_000)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except RecursionError:
        _die(EX_SOFTWARE, "internal error: recursion too deep")


if __name__ == "__main__":
    sys.exit(main())
