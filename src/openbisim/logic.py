"""Intuitionistic modal formulas, the satisfaction checker, and
distinguishing-formula generation from game strategies.

Two modes share the formula syntax:

  * applied-pi mode: formulas over extended processes, early labels
    (tau, free input ``C?N``, bound output ``C!(x)``);
  * pi mode (late): formulas over plain pi processes under a history, late
    labels (adds free output ``C!N`` and late input ``C?(x)``).

Implication and box quantify over the representative world refinements
shared with the game solver; the diamond needs no world quantification (no
refinement can disable an enabled transition).  Satisfaction is three-valued:
UNKNOWN quarantines truncation instead of guessing.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .bisim import (
    Bisimilar, CapabilityLeaf, CheckConfig, MoveNode, RefineNode, StaticLeaf,
    Strategy, Unknown, WorldMove, apply_world_move, open_bisim_pi_check,
    quasi_open_check, representative_worlds,
)
from .lts import History, early_transitions, late_transitions, respects
from .names import NameGen
from .syntax import (
    ExtendedProcess, Process, canonical_key, free_vars as proc_free_vars,
    guard_pairs, promote, substitute,
)
from .terms import (
    MAX_NESTING, Substitution, Term, Theory, Var, eq_mod, free_vars, normalize,
    parse_term, render_term,
)

__all__ = [
    "Formula", "Top", "Bottom", "Equal", "And", "Or", "Implies", "Diamond",
    "Box", "LabelPat", "Sat", "UnhousedVariable", "SelfCheckFailed",
    "NotDistinguished", "check", "check_pi", "distinguish", "parse_formula",
    "pretty_formula", "neq", "formula_alpha_equiv",
]


class Sat(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class UnhousedVariable(Exception):
    pass


class SelfCheckFailed(Exception):
    """A generated distinguishing formula failed its own verification."""


@dataclass(frozen=True)
class NotDistinguished:
    pass


# ---------------------------------------------------------------------------
# Formula syntax


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Equal(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class LabelPat:
    kind: str                       # tau | in | out | free-out | late-in
    channel: Optional[Term] = None
    payload: Optional[Term] = None  # in / free-out
    binder: Optional[str] = None    # out / late-in


@dataclass(frozen=True)
class Diamond(Formula):
    label: LabelPat
    body: Formula


@dataclass(frozen=True)
class Box(Formula):
    label: LabelPat
    body: Formula


def neq(left: Term, right: Term) -> Formula:
    return Implies(Equal(left, right), Bottom())


def conj(parts: Iterable[Formula]) -> Formula:
    parts = [p for p in parts if not isinstance(p, Top)]
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: Iterable[Formula]) -> Formula:
    parts = [p for p in parts if not isinstance(p, Bottom)]
    if not parts:
        return Bottom()
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def formula_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Top, Bottom)):
        return frozenset()
    if isinstance(f, Equal):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (And, Or, Implies)):
        return formula_vars(f.left) | formula_vars(f.right)
    out = set()
    if f.label.channel is not None:
        out |= free_vars(f.label.channel)
    if f.label.payload is not None:
        out |= free_vars(f.label.payload)
    inner = formula_vars(f.body)
    if f.label.binder is not None:
        inner = inner - {f.label.binder}
    return frozenset(out) | inner


def subst_formula(f: Formula, sub: Substitution) -> Formula:
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Equal):
        return Equal(sub(f.left), sub(f.right))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(subst_formula(f.left, sub), subst_formula(f.right, sub))
    lab = f.label
    chan = sub(lab.channel) if lab.channel is not None else None
    payload = sub(lab.payload) if lab.payload is not None else None
    inner_sub = sub
    if lab.binder is not None:
        inner_sub = Substitution(
            tuple(b for b in sub.bindings if b[0] != lab.binder)
        )
        if lab.binder in inner_sub.range_vars():
            # capture: rename the modal binder apart
            fresh = lab.binder + "'"
            while fresh in inner_sub.range_vars() or fresh in formula_vars(f.body):
                fresh += "'"
            body = subst_formula(f.body, Substitution.of({lab.binder: Var(fresh)}))
            lab = LabelPat(lab.kind, chan, payload, fresh)
            return type(f)(lab, subst_formula(body, inner_sub))
    lab = LabelPat(lab.kind, chan, payload, lab.binder)
    return type(f)(lab, subst_formula(f.body, inner_sub))


def _equality_pairs(f: Formula) -> list[tuple[Term, Term]]:
    if isinstance(f, Equal):
        return [(f.left, f.right)]
    if isinstance(f, (And, Or, Implies)):
        return _equality_pairs(f.left) + _equality_pairs(f.right)
    if isinstance(f, (Diamond, Box)):
        return _equality_pairs(f.body)
    return []


# ---------------------------------------------------------------------------
# Satisfaction, applied-pi mode


class _FMChecker:
    def __init__(self, th: Theory, cfg: CheckConfig):
        self.th = th
        self.cfg = cfg
        self.gen = NameGen()
        self.memo: dict[tuple[str, str], Sat] = {}
        self.world_cap = max(6, cfg.max_depth // 4)

    def eval(self, ep: ExtendedProcess, f: Formula) -> Sat:
        key = (canonical_key(ep), _formula_key(f))
        got = self.memo.get(key)
        if got is not None:
            return got
        self.memo[key] = Sat.UNKNOWN  # cycle guard (worlds may revisit)
        out = self._eval(ep, f)
        self.memo[key] = out
        return out

    # world closure: reflexive-transitive representative refinements
    def _worlds(self, ep: ExtendedProcess, f: Formula):
        from .bisim import canonical_render_term
        eqs = tuple(_equality_pairs(f))
        fvf = formula_vars(f)
        neq_vars = frozenset(v for s, t in eqs for v in free_vars(s) | free_vars(t))

        def wkey(state: ExtendedProcess, acc: Substitution) -> str:
            sub = acc.restrict(fvf)
            tail = ";".join(
                f"{x}={canonical_render_term(t)}" for x, t in sub.bindings
            )
            return canonical_key(state) + "|" + tail

        seen = {wkey(ep, Substitution.identity()): (ep, Substitution.identity())}
        frontier = [(ep, Substitution.identity())]
        truncated = False
        depth = 0
        while frontier and depth < self.world_cap:
            depth += 1
            nxt = []
            for state, acc in frontier:
                moves, trunc = representative_worlds(
                    (state,), self.th, self.gen,
                    extra_eqs=tuple(
                        (acc_apply(acc, s), acc_apply(acc, t)) for s, t in eqs
                    ),
                    extra_neq_vars=frozenset(
                        acc(Var(v)).name for v in neq_vars
                        if isinstance(acc(Var(v)), Var)
                    ),
                )
                truncated = truncated or trunc
                for mv in moves:
                    child = apply_world_move(state, mv, self.th)
                    comp = acc.compose(mv.formula_sigma())
                    ck = wkey(child, comp)
                    if ck in seen:
                        continue
                    seen[ck] = (child, comp)
                    nxt.append((child, comp))
            frontier = nxt
        if frontier:
            truncated = True
        return list(seen.values()), truncated

    def _eval(self, ep: ExtendedProcess, f: Formula) -> Sat:
        th = self.th
        if isinstance(f, Top):
            return Sat.SAT
        if isinstance(f, Bottom):
            return Sat.UNSAT
        if isinstance(f, Equal):
            if (free_vars(f.left) | free_vars(f.right)) & set(ep.privates):
                return Sat.UNSAT
            return Sat.SAT if eq_mod(ep.frame(f.left), ep.frame(f.right), th) else Sat.UNSAT
        if isinstance(f, And):
            l, r = self.eval(ep, f.left), self.eval(ep, f.right)
            if Sat.UNSAT in (l, r):
                return Sat.UNSAT
            if Sat.UNKNOWN in (l, r):
                return Sat.UNKNOWN
            return Sat.SAT
        if isinstance(f, Or):
            l, r = self.eval(ep, f.left), self.eval(ep, f.right)
            if Sat.SAT in (l, r):
                return Sat.SAT
            if Sat.UNKNOWN in (l, r):
                return Sat.UNKNOWN
            return Sat.UNSAT
        if isinstance(f, Implies):
            worlds, truncated = self._worlds(ep, f)
            unknown = truncated
            for state, acc in worlds:
                fl = subst_formula(f.left, acc)
                fr = subst_formula(f.right, acc)
                l = self.eval(state, fl)
                if l is Sat.UNSAT:
                    continue
                r = self.eval(state, fr)
                if l is Sat.SAT and r is Sat.UNSAT:
                    return Sat.UNSAT
                if Sat.UNKNOWN in (l, r):
                    unknown = True
            return Sat.UNKNOWN if unknown else Sat.SAT
        if isinstance(f, Diamond):
            found_unknown = False
            targets, complete = self._transitions(ep, f.label, f.body)
            for target, body in targets:
                r = self.eval(target, body)
                if r is Sat.SAT:
                    return Sat.SAT
                if r is Sat.UNKNOWN:
                    found_unknown = True
            if found_unknown or not complete:
                return Sat.UNKNOWN
            return Sat.UNSAT
        if isinstance(f, Box):
            worlds, truncated = self._worlds(ep, f)
            unknown = truncated
            for state, acc in worlds:
                f2 = subst_formula(f, acc)
                lab, body0 = f2.label, f2.body
                targets, complete = self._transitions(state, lab, body0)
                if not complete:
                    unknown = True
                for target, body in targets:
                    r = self.eval(target, body)
                    if r is Sat.UNSAT:
                        return Sat.UNSAT
                    if r is Sat.UNKNOWN:
                        unknown = True
            return Sat.UNKNOWN if unknown else Sat.SAT
        raise TypeError(f)

    def _transitions(self, ep: ExtendedProcess, lab: LabelPat,
                     body: Optional[Formula] = None):
        """(successor, instantiated body) pairs matching the label; the flag
        reports completeness of the enumeration."""
        th = self.th
        ts = early_transitions(frozenset(), ep, th, self.gen)
        complete = not ts.unknown
        if ts.dropped_channels and not th.saturation_complete:
            complete = False
        out = []
        if body is None:
            body = Top()
        if lab.kind == "tau":
            for t in ts.transitions:
                if t.label.kind == "tau":
                    out.append((t.target, body))
            return out, complete
        if lab.kind == "out":
            want = normalize(ep.frame(lab.channel), th)
            for t in ts.transitions:
                if t.label.kind != "out":
                    continue
                if not eq_mod(want, t.raw_channel, th):
                    continue
                fresh = self.gen.fresh(lab.binder or "u")
                from .bisim import _rename_frame_var
                target = _rename_frame_var(t.target, t.label.binder, fresh)
                inst = subst_formula(body, Substitution.of({lab.binder: Var(fresh)}))
                out.append((target, inst))
            return out, complete
        if lab.kind == "in":
            want = normalize(ep.frame(lab.channel), th)
            payload = lab.payload
            if free_vars(payload) & set(ep.privates):
                return [], complete
            for schema in ts.inputs:
                if eq_mod(want, schema.raw_channel, th):
                    out.append((schema.instantiate(payload), body))
            return out, complete
        raise UnhousedVariable(f"label kind {lab.kind!r} needs the late-pi mode")


def acc_apply(acc: Substitution, t: Term) -> Term:
    return acc(t)


def _subst_label(lab: LabelPat, sub: Substitution) -> LabelPat:
    return LabelPat(
        lab.kind,
        sub(lab.channel) if lab.channel is not None else None,
        sub(lab.payload) if lab.payload is not None else None,
        lab.binder,
    )


def _formula_key(f: Formula) -> str:
    return pretty_formula(f)


def check(
    a: Process | ExtendedProcess,
    f: Formula,
    th: Theory,
    cfg: CheckConfig = CheckConfig(),
) -> Sat:
    """Three-valued satisfaction for the applied-pi logic."""
    ep = promote(a)
    from .syntax import make_extended
    ep = make_extended(ep.privates, ep.frame, ep.body, th, ep.frame_order)
    housed = ep.free_variables() | ep.frame.domain
    loose = formula_vars(f) - housed
    if any(not v.startswith("?") for v in loose) and loose & set(ep.privates):
        raise UnhousedVariable(f"formula variables {sorted(loose)} are private")
    return _FMChecker(th, cfg).eval(ep, f)


# ---------------------------------------------------------------------------
# Satisfaction, pi mode (late labels, histories)


class _OMChecker:
    def __init__(self, th: Theory, cfg: CheckConfig):
        self.th = th
        self.cfg = cfg
        self.gen = NameGen()
        self.memo: dict[tuple, Sat] = {}
        self.world_cap = max(6, cfg.max_depth // 4)

    def eval(self, h: History, p: Process, f: Formula) -> Sat:
        key = (h.rendered(), canonical_key(promote(p)), _formula_key(f))
        got = self.memo.get(key)
        if got is not None:
            return got
        self.memo[key] = Sat.UNKNOWN
        out = self._eval(h, p, f)
        self.memo[key] = out
        return out

    def _worlds(self, h: History, p: Process, f: Formula):
        cands: dict[str, tuple[History, Process, Substitution]] = {}
        cands["id"] = (h, p, Substitution.identity())
        frontier = [("id", h, p, Substitution.identity())]
        depth = 0
        while frontier and depth < self.world_cap:
            depth += 1
            nxt = []
            for _, hh, pp, acc in frontier:
                eqs = [(s, t) for _, s, t in guard_pairs(pp)]
                eqs += [(acc(s), acc(t)) for s, t in _equality_pairs(f)]
                moves: list[tuple[str, object]] = []
                for s, t in eqs:
                    if not (isinstance(s, Var) and isinstance(t, Var)) or s == t:
                        continue
                    for cand in (Substitution.of({s.name: t}),
                                 Substitution.of({t.name: s})):
                        if respects(cand, hh):
                            moves.append(("subst", cand))
                neq_vars = set()
                for _, s, t in guard_pairs(pp):
                    neq_vars |= free_vars(s) | free_vars(t)
                for s, t in _equality_pairs(f):
                    neq_vars |= free_vars(acc(s)) | free_vars(acc(t))
                from .syntax import bound_names
                neq_vars -= bound_names(pp)
                neq_vars -= set(hh.outputs())
                for v in sorted(neq_vars):
                    moves.append(("fresh", v))
                for kind, data in moves:
                    if kind == "subst":
                        sub = data
                        h2 = History(tuple((k, sub(t)) for k, t in hh.events))
                        p2 = substitute(pp, sub)
                    else:
                        x = self.gen.fresh("f")
                        sub = Substitution.of({data: Var(x)})
                        h2 = hh.output(x)
                        p2 = substitute(pp, sub)
                    acc2 = acc.compose(sub)
                    from .bisim import canonical_render_term
                    tail = ";".join(
                        f"{x}={canonical_render_term(t)}"
                        for x, t in acc2.restrict(formula_vars(f)).bindings
                    )
                    key = h2.rendered() + canonical_key(promote(p2)) + "|" + tail
                    if key not in cands:
                        cands[key] = (h2, p2, acc2)
                        nxt.append((key, h2, p2, acc2))
            frontier = nxt
        return list(cands.values()), bool(frontier)

    def _eval(self, h: History, p: Process, f: Formula) -> Sat:
        if isinstance(f, Top):
            return Sat.SAT
        if isinstance(f, Bottom):
            return Sat.UNSAT
        if isinstance(f, Equal):
            return Sat.SAT if f.left == f.right else Sat.UNSAT
        if isinstance(f, And):
            l, r = self.eval(h, p, f.left), self.eval(h, p, f.right)
            if Sat.UNSAT in (l, r):
                return Sat.UNSAT
            return Sat.UNKNOWN if Sat.UNKNOWN in (l, r) else Sat.SAT
        if isinstance(f, Or):
            l, r = self.eval(h, p, f.left), self.eval(h, p, f.right)
            if Sat.SAT in (l, r):
                return Sat.SAT
            return Sat.UNKNOWN if Sat.UNKNOWN in (l, r) else Sat.UNSAT
        if isinstance(f, Implies):
            worlds, truncated = self._worlds(h, p, f)
            unknown = truncated
            for hh, pp, acc in worlds:
                l = self.eval(hh, pp, subst_formula(f.left, acc))
                if l is Sat.UNSAT:
                    continue
                r = self.eval(hh, pp, subst_formula(f.right, acc))
                if l is Sat.SAT and r is Sat.UNSAT:
                    return Sat.UNSAT
                if Sat.UNKNOWN in (l, r):
                    unknown = True
            return Sat.UNKNOWN if unknown else Sat.SAT
        if isinstance(f, Diamond):
            for h2, target, body in self._matching(h, p, f.label, f.body):
                if self.eval(h2, target, body) is Sat.SAT:
                    return Sat.SAT
            return Sat.UNSAT
        if isinstance(f, Box):
            worlds, truncated = self._worlds(h, p, f)
            unknown = truncated
            for hh, pp, acc in worlds:
                f2 = subst_formula(f, acc)
                lab, body0 = f2.label, f2.body
                for h2, target, body in self._matching(hh, pp, lab, body0):
                    r = self.eval(h2, target, body)
                    if r is Sat.UNSAT:
                        return Sat.UNSAT
                    if r is Sat.UNKNOWN:
                        unknown = True
            return Sat.UNKNOWN if unknown else Sat.SAT
        raise TypeError(f)

    def _matching(self, h: History, p: Process, lab: LabelPat, body: Formula):
        out = []
        for t in late_transitions(h, p, self.th, self.gen):
            if lab.kind == "tau" and t.kind == "tau":
                out.append((h, t.target, body))
            elif lab.kind == "free-out" and t.kind == "free-out":
                if t.channel == lab.channel and t.payload == lab.payload:
                    out.append((h, t.target, body))
            elif lab.kind == "out" and t.kind == "bound-out":
                if t.channel == lab.channel:
                    fresh = self.gen.fresh(lab.binder or "z")
                    tgt = substitute(t.target, Substitution.of({t.binder: Var(fresh)}))
                    b = subst_formula(body, Substitution.of({lab.binder: Var(fresh)}))
                    out.append((h.output(fresh), tgt, b))
            elif lab.kind == "late-in" and t.kind == "late-in":
                if t.channel == lab.channel:
                    fresh = self.gen.fresh(lab.binder or "y")
                    tgt = substitute(t.target, Substitution.of({t.binder: Var(fresh)}))
                    b = subst_formula(body, Substitution.of({lab.binder: Var(fresh)}))
                    out.append((h.input(Var(fresh)), tgt, b))
        return out


def check_pi(
    p: Process, f: Formula, th: Theory, cfg: CheckConfig = CheckConfig(),
    history: Optional[History] = None,
) -> Sat:
    """Three-valued satisfaction for the pi-fragment logic (late labels)."""
    fv = sorted(proc_free_vars(p) | {v for v in formula_vars(f) if not v.startswith("?")})
    h = history if history is not None else History.inputs_for(*fv)
    return _OMChecker(th, cfg).eval(h, p, f)


# ---------------------------------------------------------------------------
# Concrete syntax

_FORMULA_TOKEN = {
    "tt", "ff", "&", "|", "=>", "=", "!=", "<", ">", "[", "]", "(", ")",
    "tau", "!", "?",
}


class _TooDeep(ValueError):
    pass


class _FParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0      # nesting of the formula being parsed

    def descend(self) -> None:
        """Enter one more level of nesting, refusing formulas nested deeper
        than MAX_NESTING.  Callers restore `depth` when the level ends."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _TooDeep(f"at most {MAX_NESTING} levels of nesting "
                           f"(offset {self.pos})")

    def _ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, s: str) -> bool:
        self._ws()
        return self.text.startswith(s, self.pos)

    def eat(self, s: str) -> bool:
        if self.peek(s):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.eat(s):
            got = self.text[self.pos:self.pos + 12]
            raise ValueError(f"expected {s!r} at {got!r} (offset {self.pos})")

    def ident(self) -> str:
        self._ws()
        i = self.pos
        while i < len(self.text) and (self.text[i].isalnum() or self.text[i] in "_'#?"):
            i += 1
        if i == self.pos:
            raise ValueError(f"expected identifier at offset {self.pos}")
        out = self.text[self.pos:i]
        self.pos = i
        return out

    def term(self) -> Term:
        self._ws()
        start = self.pos
        depth = 0
        i = self.pos
        while i < len(self.text):
            c = self.text[i]
            if c == "(":
                depth += 1
            elif c == ")":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and c in "=!<>&|[]?\\":
                break
            i += 1
        text = self.text[start:i].strip()
        self.pos = start + len(self.text[start:i])
        return parse_term(text)

    # Implications nest to the right and chains of & and \/ to the left,
    # one level per operator; a modality or a parenthesis is one level too.
    def formula(self) -> Formula:
        base = self.depth
        left = self.disjunct()
        if self.eat("=>"):
            self.descend()
            left = Implies(left, self.formula())
        self.depth = base
        return left

    def disjunct(self) -> Formula:
        # '\/' for disjunction; '|' kept as alias
        base = self.depth
        out = self.conjunct()
        while self.eat("\\/") or (self.peek("|") and not self.peek("|=") and self.eat("|")):
            self.descend()
            out = Or(out, self.conjunct())
        self.depth = base
        return out

    def conjunct(self) -> Formula:
        base = self.depth
        out = self.unary()
        while self.eat("&"):
            self.descend()
            out = And(out, self.unary())
        self.depth = base
        return out

    def unary(self) -> Formula:
        self._ws()
        if self.eat("tt"):
            return Top()
        if self.eat("ff"):
            return Bottom()
        base = self.depth
        if self.eat("<"):
            lab = self.label()
            self.expect(">")
            self.descend()
            f = Diamond(lab, self.unary())
            self.depth = base
            return f
        if self.eat("["):
            lab = self.label()
            self.expect("]")
            self.descend()
            f = Box(lab, self.unary())
            self.depth = base
            return f
        if self.peek("("):
            save = self.pos
            self.eat("(")
            self.descend()
            try:
                inner = self.formula()
                self.expect(")")
                self.depth = base
                return inner
            except _TooDeep:
                raise
            except ValueError:
                # a parenthesised term, fall through
                self.pos, self.depth = save, base
        left = self.term()
        self._ws()
        if self.eat("!="):
            return neq(left, self.term())
        self.expect("=")
        return Equal(left, self.term())

    def label(self) -> LabelPat:
        self._ws()
        if self.eat("tau"):
            return LabelPat("tau")
        chan = self.term()
        self._ws()
        if self.eat("!"):
            if self.eat("("):
                binder = self.ident()
                self.expect(")")
                return LabelPat("out", chan, binder=binder)
            return LabelPat("free-out", chan, payload=self.term())
        self.expect("?")
        if self.eat("("):
            binder = self.ident()
            self.expect(")")
            return LabelPat("late-in", chan, binder=binder)
        return LabelPat("in", chan, payload=self.term())


def parse_formula(text: str) -> Formula:
    p = _FParser(text)
    f = p.formula()
    p._ws()
    if p.pos != len(p.text):
        raise ValueError(f"trailing input in formula: {p.text[p.pos:]!r}")
    return f


def _label_str(lab: LabelPat) -> str:
    if lab.kind == "tau":
        return "tau"
    c = render_term(lab.channel)
    if lab.kind == "out":
        return f"{c}!({lab.binder})"
    if lab.kind == "free-out":
        return f"{c}!{render_term(lab.payload)}"
    if lab.kind == "late-in":
        return f"{c}?({lab.binder})"
    return f"{c}?{render_term(lab.payload)}"


def pretty_formula(f: Formula, prec: int = 0) -> str:
    # prec: 0 implication context, 1 disjunction, 2 conjunction, 3 atom
    if isinstance(f, Top):
        return "tt"
    if isinstance(f, Bottom):
        return "ff"
    if isinstance(f, Equal):
        return f"{render_term(f.left)} = {render_term(f.right)}"
    if isinstance(f, Implies):
        if isinstance(f.left, Equal) and isinstance(f.right, Bottom):
            return f"{render_term(f.left.left)} != {render_term(f.left.right)}"
        s = f"{pretty_formula(f.left, 1)} => {pretty_formula(f.right, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, Or):
        s = f"{pretty_formula(f.left, 1)} \\/ {pretty_formula(f.right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(f, And):
        s = f"{pretty_formula(f.left, 2)} & {pretty_formula(f.right, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(f, Diamond):
        return f"<{_label_str(f.label)}>{pretty_formula(f.body, 3)}"
    if isinstance(f, Box):
        return f"[{_label_str(f.label)}]{pretty_formula(f.body, 3)}"
    raise TypeError(f)


def formula_alpha_equiv(f: Formula, g: Formula,
                        flexible: frozenset[str] = frozenset()) -> bool:
    """Equality up to renaming of modal binders and of `flexible` variables
    (session-generated names and payload placeholders)."""
    def canon(f: Formula, env: dict[str, str], counter) -> str:
        def rt(t: Term) -> str:
            if isinstance(t, Var):
                n = t.name
                if n in env:
                    return env[n]
                if n in flexible or "#" in n or n.startswith("?"):
                    env[n] = f"%{next(counter)}"
                    return env[n]
                return n
            return f"{t.fn}({','.join(rt(a) for a in t.args)})"

        if isinstance(f, Top):
            return "tt"
        if isinstance(f, Bottom):
            return "ff"
        if isinstance(f, Equal):
            return f"{rt(f.left)}={rt(f.right)}"
        if isinstance(f, (And, Or, Implies)):
            tag = {And: "&", Or: "|", Implies: ">"}[type(f)]
            return f"({canon(f.left, env, counter)}{tag}{canon(f.right, env, counter)})"
        lab = f.label
        parts = [lab.kind]
        if lab.channel is not None:
            parts.append(rt(lab.channel))
        if lab.payload is not None:
            parts.append(rt(lab.payload))
        env2 = dict(env)
        if lab.binder is not None:
            env2[lab.binder] = f"%{next(counter)}"
            parts.append(env2[lab.binder])
        tag = "D" if isinstance(f, Diamond) else "B"
        return f"{tag}[{','.join(parts)}]{canon(f.body, env2, counter)}"

    return canon(f, {}, itertools.count()) == canon(g, {}, itertools.count())


# ---------------------------------------------------------------------------
# Distinguishing formulas from strategies


def _move_constraints(mv: WorldMove) -> Formula:
    if mv.kind == "subst":
        return conj(Equal(Var(x), t) for x, t in mv.sigma.bindings)
    s, t = mv.guard
    return neq(s, t)


def _strategy_label(label_data: tuple) -> LabelPat:
    kind = label_data[0]
    if kind == "tau":
        return LabelPat("tau")
    if kind == "out":
        _, recipe, binder = label_data
        return LabelPat("out", recipe, binder=binder)
    if kind == "in":
        _, chan, payload = label_data
        return LabelPat("in", chan, payload=payload)
    if kind == "free-out":
        _, chan, payload, _ = label_data
        return LabelPat("free-out", chan, payload=payload)
    if kind == "bound-out":
        _, chan, _, binder = label_data
        return LabelPat("out", chan, binder=binder)
    if kind == "late-in":
        _, chan, _, binder = label_data
        return LabelPat("late-in", chan, binder=binder)
    raise ValueError(label_data)


def _enabling_tags(node, side: int, label: LabelPat, th: Theory,
                   cfg: CheckConfig, mode: str) -> list[Formula]:
    """Constraint formulas of worlds in which `side`'s process gains a
    transition matching `label` (used in the box branch of the generation)."""
    gen = NameGen()
    tags: list[Formula] = []
    if mode == "late-pi":
        h, p, q = node
        proc = (p, q)[side]
        guards = [(s, t) for k, s, t in guard_pairs(proc) if k == "!="]
        for s, t in guards:
            # a fresh extension enabling this mismatch
            tags.append(neq(s, t))
        for k, s, t in guard_pairs(proc):
            if k == "=" and s != t:
                tags.append(Equal(s, t))
        return tags
    a, b = node
    ep = (a, b)[side]
    moves, _ = representative_worlds((a, b), th, gen)
    checker = _FMChecker(th, cfg)
    for mv in moves:
        refined = apply_world_move(ep, mv, th)
        lab = _subst_label(label, mv.sigma)
        targets, _ = checker._transitions(refined, lab, Top())
        if targets:
            tags.append(_move_constraints(mv))
    return tags


def _formulas_from_strategy(s: Strategy, th: Theory, cfg: CheckConfig,
                            mode: str) -> tuple[Formula, Formula]:
    """Primary candidate pair (phi_L, phi_R): phi_L biased to the left
    process, phi_R to the right."""
    if isinstance(s, StaticLeaf):
        eq = Equal(s.left_recipe, s.right_recipe)
        ne = neq(s.left_recipe, s.right_recipe)
        return (eq, ne) if s.equal_on == "a" else (ne, eq)
    if isinstance(s, CapabilityLeaf):
        lab = _strategy_label(s.label_data)
        mover = Diamond(lab, Top())
        tags = _enabling_tags(s.node, 1 - s.side, lab, th, cfg, mode) if s.node else []
        other = Box(lab, disj(tags))
        return (mover, other) if s.side == 0 else (other, mover)
    if isinstance(s, RefineNode):
        l, r = _formulas_from_strategy(s.child, th, cfg, mode)
        guard = _move_constraints(s.move)
        mover_side = _strategy_side(s.child)
        if mover_side == 0:
            return (Implies(guard, l), r)
        return (l, Implies(guard, r))
    if isinstance(s, MoveNode):
        lab = _strategy_label(s.label_data)
        subs = [_formulas_from_strategy(c, th, cfg, mode) for c in s.children]
        mover_parts = [p[s.side] for p in subs]
        other_parts = [p[1 - s.side] for p in subs]
        mover = Diamond(lab, conj(mover_parts))
        other = Box(lab, disj(other_parts))
        return (mover, other) if s.side == 0 else (other, mover)
    raise TypeError(s)


def _strategy_side(s: Strategy) -> int:
    if isinstance(s, (CapabilityLeaf, MoveNode)):
        return s.side
    if isinstance(s, RefineNode):
        return _strategy_side(s.child)
    return 0


def _candidate_pairs(s: Strategy, th: Theory, cfg: CheckConfig, mode: str):
    primary = _formulas_from_strategy(s, th, cfg, mode)
    yield primary
    # fallback: guard every refine step on both sides
    def wrap_all(s: Strategy) -> tuple[Formula, Formula]:
        if isinstance(s, RefineNode):
            l, r = wrap_all(s.child)
            guard = _move_constraints(s.move)
            return (Implies(guard, l), Implies(guard, r))
        if isinstance(s, MoveNode):
            lab = _strategy_label(s.label_data)
            subs = [wrap_all(c) for c in s.children]
            mover = Diamond(lab, conj(p[s.side] for p in subs))
            other = Box(lab, disj(p[1 - s.side] for p in subs))
            return (mover, other) if s.side == 0 else (other, mover)
        return _formulas_from_strategy(s, th, cfg, mode)

    yield wrap_all(s)


def distinguish(
    p: Process,
    q: Process,
    th: Theory,
    cfg: CheckConfig = CheckConfig(),
):
    """Emit a left-biased and a right-biased distinguishing formula, both
    self-checked against the model checker; or NotDistinguished/Unknown."""
    if cfg.mode == "late-pi":
        verdict = open_bisim_pi_check(p, q, th, cfg)
    else:
        verdict = quasi_open_check(p, q, th, cfg)
    if isinstance(verdict, Bisimilar):
        return NotDistinguished()
    if isinstance(verdict, Unknown):
        return verdict

    def sat(proc, f):
        if cfg.mode == "late-pi":
            return check_pi(proc, f, th, cfg)
        return check(proc, f, th, cfg)

    attempts = []
    for fl, fr in _candidate_pairs(verdict.strategy, th, cfg, cfg.mode):
        ok = (
            sat(p, fl) is Sat.SAT and sat(q, fl) is Sat.UNSAT
            and sat(q, fr) is Sat.SAT and sat(p, fr) is Sat.UNSAT
        )
        attempts.append((fl, fr, ok))
        if ok:
            return (fl, fr)
    detail = "; ".join(
        f"L={pretty_formula(fl)} R={pretty_formula(fr)}" for fl, fr, _ in attempts
    )
    raise SelfCheckFailed(
        f"no generated candidate pair self-checked ({detail})"
    )
