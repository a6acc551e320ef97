"""Command-line front end.

Subcommands: check-bisim, check-static, model-check, distinguish, trace,
fmt, corpus.  Every file is read by `_read`, and `main` maps each exception
a command may end in to its exit code in one table, `_FAILURES`:

  * 0/1/2: the verdict (yes/no/unknown);
  * 64, usage: a negative bound, replication without an unfolding bound,
    `--late-pi` outside the pi fragment, processes or frames of different
    frame domains;
  * 66, bad input: a file that cannot be read, is not UTF-8 or does not
    parse (nested deeper than the readers' limit included), a bad theory
    (an undeclared symbol, rewriting that does not terminate), a formula
    that names a private name, a late-pi label in the early mode or an
    early input label in the late-pi mode;
  * 70: an internal self-check failure, recursion too deep for the stack;
  * 74: standard output closed before all was written (a broken pipe).

`check-bisim --validate` answers `invalid` (1) for a witness whose root is
not the pair checked or whose mode is not the one asked for.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import time
from typing import Optional

from . import corpus as corpus_pkg
from .bisim import (
    Bisimilar, CapabilityLeaf, CheckConfig, DistinguishedVerdict, MoveNode,
    RefineNode, RelationWitness, StaticLeaf, Unknown, _all_names, check_bisim,
    early_root, validate_witness,
)
from .frames import Distinguished, Equivalent, Frame, static_equiv
from .lts import History, Label, NotPiFragment, ReplicationUnbounded, early_transitions
from .logic import (
    Formula, NotDistinguished, Sat, SelfCheckFailed, UnhousedVariable, check,
    check_pi, distinguish, model_check, parse_formula, pretty_formula,
)
from .names import NameGen
from .syntax import (
    ExtendedProcess, canonical_key, make_extended, parse, parse_process,
    pretty, pretty_extended, promote,
)
from .terms import (
    ParseError, Term, TheoryError, Theory, Var, eq_mod, free_vars, load_theory,
    parse_term, parse_theory, render_term,
)

EX_OK, EX_NO, EX_UNKNOWN = 0, 1, 2
EX_USAGE, EX_NOINPUT, EX_SOFTWARE, EX_IOERR = 64, 66, 70, 74


class InputError(Exception):
    """A file that cannot be read, is not UTF-8 text or does not parse."""


def _read(path: str, parse):
    """What `parse` reads from the text of the file at `path`.  Errors of
    the file, and parse and theory errors of its text, are InputErrors
    naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except (ParseError, TheoryError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _theory(args) -> Theory:
    """The theory file of `args`, under its --unify-bound if one is given."""
    name = args.theory.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    th = _read(args.theory, lambda text: parse_theory(text, name=name))
    if args.unify_bound is None:
        return th
    return dataclasses.replace(th, unification_bound=args.unify_bound)


def _config(args) -> CheckConfig:
    return CheckConfig(
        max_depth=args.depth,
        recipe_depth=args.recipe_depth,
        unfold=getattr(args, "unfold", 0),
        mode="late-pi" if args.late_pi else "early-applied",
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


def _parse_at(read, text: str, n: int, column: int):
    """`read(text)`, for text that starts at `column` of line `n` of a
    witness or strategy file; errors point into that file."""
    try:
        return read(text)
    except ParseError as exc:
        raise exc.at(n, column) from None


def _parse_pair(text: str, n: int, column: int, read=_extended):
    """The two processes of `P ~~ Q`, which starts at `column` of line `n`,
    each read by `read`."""
    sides = text.split(" ~~ ")
    if len(sides) != 2:
        raise ParseError(n, column, "'P ~~ Q'", text)
    left = _parse_at(read, sides[0], n, column)
    return left, _parse_at(read, sides[1], n, column + len(sides[0]) + len(" ~~ "))


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
        return f"{pad}capability {side} {s.label.rendered()}{at}\n"
    if isinstance(s, RefineNode):
        return f"{pad}refine {s.move.describe()}\n" + render_strategy(s.child, indent + 1)
    if isinstance(s, MoveNode):
        side = "left" if s.side == 0 else "right"
        out = f"{pad}move {side} {s.label.rendered()}\n"
        for c in s.children:
            out += render_strategy(c, indent + 1)
        return out
    raise TypeError(s)


def validate_strategy_text(text: str, th: Theory, cfg: CheckConfig) -> bool:
    """Re-check every leaf of an emitted strategy: static leaves must still
    distinguish their frames, by recipes that name no private name of either
    side; capability leaves must still be one-sided (late-pi ones under
    their history).  A leaf line of another shape raises ParseError."""
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
            start = column + len("static ")
            l = _parse_at(parse_term, l_txt, n, start)
            r = _parse_at(parse_term, r_txt, n, start + len(l_txt) + len(" vs "))
            a, b = _parse_pair(at, n, column + len(head) + len(" at "))
            ea = eq_mod(a.frame(l), a.frame(r), th)
            eb = eq_mod(b.frame(l), b.frame(r), th)
            checked += 1
            # a recipe is the attacker's: it names no private name of a side
            unusable = (free_vars(l) | free_vars(r)) & {*a.privates, *b.privates}
            if ea == eb or (equal_on == "a") != ea or unusable:
                ok = False
        elif line.startswith("capability ") and (" at " in line or " at-pi " in line):
            sep = " at " if " at " in line else " at-pi "
            head, at = line.split(sep, 1)
            bits = head.split(" ", 2)
            if len(bits) < 3 or bits[1] not in ("left", "right"):
                raise ParseError(n, column, f"'capability left|right LABEL{sep}P ~~ Q'", line)
            side = 0 if bits[1] == "left" else 1
            label = _parse_at(parse_formula, f"<{bits[2]}>tt", n,
                              column + len(head) - len(bits[2]) - 1)
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
    `M^i` (an input) and `x^o` (an extruded name, each x once) joined by
    '.', starting at `column` of line `n`."""
    events: list[tuple[str, Term]] = []
    for event in ([] if text == "e" else text.split(".")):
        term_txt, _, kind = event.rpartition("^")
        term = _parse_at(parse_term, term_txt, n, column)
        if kind not in ("i", "o") or (kind == "o" and (
                not isinstance(term, Var) or ("o", term) in events)):
            raise ParseError(n, column, "an event 'M^i', or 'x^o' with a new x", event)
        events.append((kind, term))
        column += len(event) + len(".")
    return History(tuple(events))


def _has_label(p, label: Formula, th: Theory, cfg: CheckConfig,
               history: Optional[History] = None) -> bool:
    """Whether p satisfies `label`, a formula <L>tt: whether p has a
    transition labelled L, by the late-pi checker when a history is given.
    p has no label that names a private name of p (UnhousedVariable), or
    none under a history when p is outside the pi fragment (NotPiFragment)."""
    try:
        if history is None:
            return check(p, label, th, cfg) is Sat.SAT
        return check_pi(p, label, th, cfg, history) is Sat.SAT
    except (UnhousedVariable, NotPiFragment):
        return False


def _validate(text: str, left, right, th: Theory, cfg: CheckConfig) -> bool:
    """Whether a witness or strategy file holds for the pair (left, right).
    A witness must also be of the mode checked, with (left, right) as its
    root up to canonical_key, as the check builds the root."""
    if not text.startswith("witness"):
        return validate_strategy_text(text, th, cfg)
    w = parse_witness(text, cfg)
    if cfg.mode == "late-pi":
        root = promote(left), promote(right)
    else:
        root = early_root(left, right, th, cfg)
    return (w.mode == cfg.mode and canonical_key(*w.root) == canonical_key(*root)
            and validate_witness(w, th, cfg))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check_bisim(args) -> int:
    th = _theory(args)
    cfg = _config(args)
    left, right = _read(args.left, parse), _read(args.right, parse)

    if args.validate:
        okay = _read(args.validate, lambda text: _validate(text, left, right, th, cfg))
        print("valid" if okay else "invalid")
        return EX_OK if okay else EX_NO

    verdict = check_bisim(left, right, th, cfg)

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
    th = _theory(args)
    fa = _to_frame(_read(args.left, parse))
    fb = _to_frame(_read(args.right, parse))
    verdict = static_equiv(fa, fb, th, depth=args.recipe_depth)
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
    th = _theory(args)
    cfg = _config(args)
    proc = _read(args.process, parse)
    formula = _read(args.formula, parse_formula)
    result = model_check(proc, formula, th, cfg)
    _emit(args, {"verdict": result.value}, result.value)
    return {"sat": EX_OK, "unsat": EX_NO, "unknown": EX_UNKNOWN}[result.value]


def cmd_distinguish(args) -> int:
    th = _theory(args)
    cfg = _config(args)
    left, right = _read(args.left, parse), _read(args.right, parse)
    result = distinguish(left, right, th, cfg)
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
    th = _theory(args)
    proc = _read(args.process, parse)
    ep = promote(proc)
    ep = make_extended(ep.privates, ep.frame, ep.body, th, ep.frame_order)
    gen = NameGen()
    gen.reserve(_all_names(ep))
    lines: list[str] = []

    def walk(state, depth):
        pad = "  " * depth
        if depth == 0:
            lines.append(pretty_extended(state))
        if depth >= args.depth:
            return
        try:
            ts = early_transitions(state, th, gen, allow_replication=args.unfold > 0)
        except ReplicationUnbounded:
            lines.append(pad + "  (replication: pass --unfold to expand)")
            return
        for t in ts.transitions:
            lines.append(f"{pad}  --{t.label.rendered()}--> {pretty_extended(t.target)}")
            walk(t.target, depth + 1)
        for schema in ts.inputs:
            payload = Var(gen.fresh("z"))
            target = schema.instantiate(payload)
            label = Label("in", schema.channel, payload)
            lines.append(f"{pad}  --{label.rendered()}--> {pretty_extended(target)}")
            walk(target, depth + 1)

    walk(ep, 0)
    print("\n".join(lines))
    return EX_OK


def cmd_fmt(args) -> int:
    p = _read(args.process, parse)
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
        verdict = check_bisim(left, right, th, cfg)
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


def _bound(text: str) -> int:
    """An argparse type: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _add_common(sub, depth=64, recipe_depth=2, unfold=False):
    sub.add_argument("--depth", type=_bound, default=depth, help="max game depth")
    sub.add_argument("--recipe-depth", type=_bound, default=recipe_depth,
                     help="recipe enumeration depth")
    if unfold:
        sub.add_argument("--unfold", type=_bound, default=0,
                         help="replication unfolding bound")
    sub.add_argument("--unify-bound", type=_bound, default=None,
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
    cb.add_argument("--emit-witness", metavar="PATH")
    cb.add_argument("--emit-strategy", metavar="PATH")
    cb.add_argument("--validate", metavar="PATH",
                    help="re-validate an emitted witness/strategy file")
    _add_common(cb, unfold=True)
    cb.set_defaults(fn=cmd_check_bisim)

    cs = sp.add_parser("check-static", help="decide static equivalence of frames")
    cs.add_argument("left")
    cs.add_argument("right")
    cs.add_argument("theory")
    _add_common(cs, recipe_depth=3)
    cs.set_defaults(fn=cmd_check_static)

    mc = sp.add_parser("model-check", help="check a modal formula")
    mc.add_argument("process")
    mc.add_argument("formula")
    mc.add_argument("theory")
    mc.add_argument("--late-pi", action="store_true")
    _add_common(mc, unfold=True)
    mc.set_defaults(fn=cmd_model_check)

    di = sp.add_parser("distinguish", help="emit distinguishing formulas")
    di.add_argument("left")
    di.add_argument("right")
    di.add_argument("theory")
    di.add_argument("--late-pi", action="store_true")
    _add_common(di, unfold=True)
    di.set_defaults(fn=cmd_distinguish)

    tr = sp.add_parser("trace", help="print the transition tree")
    tr.add_argument("process")
    tr.add_argument("theory")
    _add_common(tr, depth=3, unfold=True)
    tr.set_defaults(fn=cmd_trace)

    fm = sp.add_parser("fmt", help="parse and pretty-print a process file")
    fm.add_argument("process")
    fm.set_defaults(fn=cmd_fmt)

    co = sp.add_parser("corpus", help="run the bundled acceptance corpus")
    co.add_argument("--only", default="", help="substring filter on entry names")
    co.add_argument("--json", action="store_true")
    co.set_defaults(fn=cmd_corpus)

    return ap


# The exit code and stderr message of each exception a command may end in;
# the first class that matches wins.  A closed standard output is answered
# apart (see main); any other exception ends in Python's own traceback.
_FAILURES = {
    InputError: (EX_NOINPUT, "{}"),
    TheoryError: (EX_NOINPUT, "bad theory: {}"),        # UnknownSymbol, NonTermination
    UnhousedVariable: (EX_NOINPUT, "{}"),
    ReplicationUnbounded: (EX_USAGE, "{} (use --unfold)"),
    NotPiFragment: (EX_USAGE, "{}"),
    ValueError: (EX_USAGE, "{}"),                       # frame domains that differ
    SelfCheckFailed: (EX_SOFTWARE, "internal self-check failure: {}"),
    RecursionError: (EX_SOFTWARE, "internal error: recursion too deep"),
}


def main(argv: Optional[list[str]] = None) -> int:
    sys.setrecursionlimit(100_000)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()      # a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone (`| head -1`): write nothing more to stdout,
        # not even the flush at exit, and say nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    except tuple(_FAILURES) as exc:
        code, message = next(v for cls, v in _FAILURES.items() if isinstance(exc, cls))
        print(message.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
