"""Intuitionistic modal formulas, the satisfaction checker, and
distinguishing-formula generation from game strategies.

A modality is indexed by `lts.Label`, the type the transition systems
label their steps with.  Two modes share the formula syntax:

  * applied-pi mode: formulas over extended processes, early labels
    (tau, input ``C?N``, bound output ``C!(x)``);
  * pi mode (late): formulas over plain pi processes under a history, late
    labels (tau, free output ``C!N``, bound output ``C!(x)``, late input
    ``C?(x)``).

A mode answers a modality's label by its system's rule in `lts`
(`early_answers`, `late_answers`), the rule the game answers a move by.
Implication and box quantify over the representative world refinements
shared with the game solver; the diamond needs no world quantification (no
refinement can disable an enabled transition).  Satisfaction is three-valued:
UNKNOWN quarantines truncation instead of guessing.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .bisim import (
    Bisimilar, CapabilityLeaf, CheckConfig, MoveNode, RefineNode, StaticLeaf,
    Strategy, Unknown, WorldMove, _all_names, apply_world_move,
    canonical_render_term, check_bisim, early_root, pi_worlds,
    representative_worlds,
)
from .lts import (
    History, Label, NotPiFragment, early_answers, early_transitions,
    late_answers, late_transitions, rename_frame_var,
)
from .names import NameGen
from .syntax import (
    ExtendedProcess, Process, bound_names, canonical_key,
    free_vars as proc_free_vars, guard_pairs, has_replication, make_extended,
    promote, substitute, unfold_replication,
)
from .terms import (
    Reader, Substitution, Term, Theory, Var, eq_mod, free_vars, render_term,
)

__all__ = [
    "Formula", "Top", "Bottom", "Equal", "And", "Or", "Implies", "Diamond",
    "Box", "Sat", "UnhousedVariable", "SelfCheckFailed",
    "NotDistinguished", "check", "check_pi", "model_check", "distinguish",
    "parse_formula", "pretty_formula", "neq", "formula_alpha_equiv",
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
class Diamond(Formula):
    label: Label
    body: Formula


@dataclass(frozen=True)
class Box(Formula):
    label: Label
    body: Formula


def neq(left: Term, right: Term) -> Formula:
    return Implies(Equal(left, right), Bottom())


def _fold(op, unit: Formula, parts: Iterable[Formula]) -> Formula:
    """`op` folded from the left over `parts` less their units; `unit`
    when none is left."""
    kept = [p for p in parts if not isinstance(p, type(unit))]
    return functools.reduce(op, kept) if kept else unit


def conj(parts: Iterable[Formula]) -> Formula:
    return _fold(And, Top(), parts)


def disj(parts: Iterable[Formula]) -> Formula:
    return _fold(Or, Bottom(), parts)


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
    lab = _subst_label(f.label, sub)
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
            lab = replace(lab, binder=fresh)
            return type(f)(lab, subst_formula(body, inner_sub))
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
# Satisfaction: one checker, two modes


class _Checker:
    """Three-valued satisfaction, memoized per state and formula, with one
    rule per connective.  Implication and box range over the worlds of a
    state (`_worlds`), the modalities over a label's successors.  A mode
    supplies `_state_key`, `_equal`, one step of world refinement
    (`_refinements`: (state, substitution) pairs and whether they may be
    incomplete) and the successors (`_matching`: (state, instantiated body)
    pairs and whether they are complete)."""

    def __init__(self, th: Theory, cfg: CheckConfig):
        self.th = th
        self.gen = NameGen()
        self.memo: dict[tuple, Sat] = {}
        self.world_cap = max(6, cfg.max_depth // 4)

    def eval(self, state, f: Formula) -> Sat:
        key = (self._state_key(state), pretty_formula(f))
        got = self.memo.get(key)
        if got is not None:
            return got
        self.memo[key] = Sat.UNKNOWN  # cycle guard (worlds may revisit)
        out = self._eval(state, f)
        self.memo[key] = out
        return out

    def _worlds(self, state, f: Formula):
        """The state and its refinements, reflexively and transitively up
        to `world_cap` steps, each with the substitution accumulated on the
        way (restricted to f's variables, part of a world's identity); and
        whether the closure was truncated."""
        eqs = tuple(_equality_pairs(f))
        fvf = formula_vars(f)

        def key(world, acc: Substitution) -> tuple:
            tail = ";".join(
                f"{x}={canonical_render_term(t)}" for x, t in acc.restrict(fvf).bindings
            )
            return self._state_key(world), tail

        ident = Substitution.identity()
        seen = {key(state, ident): (state, ident)}
        frontier = [(state, ident)]
        truncated = False
        depth = 0
        while frontier and depth < self.world_cap:
            depth += 1
            nxt = []
            for world, acc in frontier:
                steps, trunc = self._refinements(world, acc, eqs)
                truncated = truncated or trunc
                for child, sigma in steps:
                    comp = acc.compose(sigma)
                    ck = key(child, comp)
                    if ck not in seen:
                        seen[ck] = (child, comp)
                        nxt.append((child, comp))
            frontier = nxt
        return list(seen.values()), truncated or bool(frontier)

    def _eval(self, state, f: Formula) -> Sat:
        if isinstance(f, Top):
            return Sat.SAT
        if isinstance(f, Bottom):
            return Sat.UNSAT
        if isinstance(f, Equal):
            return self._equal(state, f)
        if isinstance(f, And):
            l, r = self.eval(state, f.left), self.eval(state, f.right)
            if Sat.UNSAT in (l, r):
                return Sat.UNSAT
            if Sat.UNKNOWN in (l, r):
                return Sat.UNKNOWN
            return Sat.SAT
        if isinstance(f, Or):
            l, r = self.eval(state, f.left), self.eval(state, f.right)
            if Sat.SAT in (l, r):
                return Sat.SAT
            if Sat.UNKNOWN in (l, r):
                return Sat.UNKNOWN
            return Sat.UNSAT
        if isinstance(f, Implies):
            worlds, truncated = self._worlds(state, f)
            unknown = truncated
            for world, acc in worlds:
                fl = subst_formula(f.left, acc)
                fr = subst_formula(f.right, acc)
                l = self.eval(world, fl)
                if l is Sat.UNSAT:
                    continue
                r = self.eval(world, fr)
                if l is Sat.SAT and r is Sat.UNSAT:
                    return Sat.UNSAT
                if Sat.UNKNOWN in (l, r):
                    unknown = True
            return Sat.UNKNOWN if unknown else Sat.SAT
        if isinstance(f, Diamond):
            found_unknown = False
            targets, complete = self._matching(state, f.label, f.body)
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
            worlds, truncated = self._worlds(state, f)
            unknown = truncated
            for world, acc in worlds:
                f2 = subst_formula(f, acc)
                lab, body0 = f2.label, f2.body
                targets, complete = self._matching(world, lab, body0)
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


# Applied-pi mode: extended processes, early labels


class _FMChecker(_Checker):
    def _state_key(self, ep: ExtendedProcess) -> str:
        return canonical_key(ep)

    def _equal(self, ep: ExtendedProcess, f: Equal) -> Sat:
        if (free_vars(f.left) | free_vars(f.right)) & set(ep.privates):
            return Sat.UNSAT
        return Sat.SAT if eq_mod(ep.frame(f.left), ep.frame(f.right), self.th) else Sat.UNSAT

    def _refinements(self, ep: ExtendedProcess, acc: Substitution, eqs):
        """The representative refinements of ep, with the formula's
        equations and their names (under acc) as extra guards; a fresh
        extension is seen through its exported alias."""
        moves, truncated = representative_worlds(
            (ep,), self.th, self.gen,
            extra_eqs=tuple((acc(s), acc(t)) for s, t in eqs),
            extra_neq_vars=frozenset(
                acc(Var(v)).name for s, t in eqs for v in free_vars(s) | free_vars(t)
                if isinstance(acc(Var(v)), Var)
            ),
        )
        return [(apply_world_move(ep, mv, self.th), mv.formula_sigma())
                for mv in moves], truncated

    def _matching(self, ep: ExtendedProcess, lab: Label, body: Formula):
        """(successor, instantiated body) pairs of the transitions that
        answer the label (lts.early_answers); the flag reports completeness
        of the enumeration.  A bound output's exported variable is renamed
        to a fresh name, which the body's binder takes."""
        th = self.th
        ts = early_transitions(ep, th, self.gen)
        complete = not ts.unknown
        if ts.dropped_channels and not th.saturation_complete:
            complete = False
        if lab.kind not in ("tau", "out", "in"):
            raise UnhousedVariable(f"label kind {lab.kind!r} needs the late-pi mode")
        if lab.kind == "in" and free_vars(lab.payload) & set(ep.privates):
            return [], complete
        out = []
        for t in early_answers(lab, ep, ts, th):
            if lab.kind == "tau":
                out.append((t.target, body))
            elif lab.kind == "in":
                out.append((t.instantiate(lab.payload), body))
            else:
                fresh = self.gen.fresh(lab.binder)
                inst = subst_formula(body, Substitution.of({lab.binder: Var(fresh)}))
                out.append((rename_frame_var(t.target, t.label.binder, fresh), inst))
        return out, complete


def _subst_label(lab: Label, sub: Substitution) -> Label:
    return Label(
        lab.kind,
        sub(lab.channel) if lab.channel is not None else None,
        sub(lab.payload) if lab.payload is not None else None,
        lab.binder,
    )


def check(
    a: Process | ExtendedProcess,
    f: Formula,
    th: Theory,
    cfg: CheckConfig = CheckConfig(),
) -> Sat:
    """Three-valued satisfaction for the applied-pi logic.  Replication is
    unfolded cfg.unfold times, as in the game's root (bisim.early_root).
    The names the checker mints avoid every name of the state and of f."""
    ep = promote(a)
    if cfg.unfold > 0 and has_replication(ep.body):
        ep = replace(ep, body=unfold_replication(ep.body, cfg.unfold))
    ep = make_extended(ep.privates, ep.frame, ep.body, th, ep.frame_order)
    housed = ep.free_variables() | ep.frame.domain
    loose = formula_vars(f) - housed
    if any(not v.startswith("?") for v in loose) and loose & set(ep.privates):
        raise UnhousedVariable(f"formula variables {sorted(loose)} are private")
    checker = _FMChecker(th, cfg)
    checker.gen.reserve(_all_names(ep) | formula_vars(f))
    return checker.eval(ep, f)


# Pi mode: plain pi processes under a history, late labels


class _OMChecker(_Checker):
    """States are (history, process) pairs."""

    def _state_key(self, state: tuple[History, Process]) -> tuple[str, str]:
        h, p = state
        return h.rendered(), canonical_key(promote(p))

    def _equal(self, state, f: Equal) -> Sat:
        return Sat.SAT if f.left == f.right else Sat.UNSAT

    def _refinements(self, state: tuple[History, Process], acc: Substitution, eqs):
        """The pi world moves of the state, with the formula's equations
        (under acc) as extra guards and every name of a guard or equation
        as a candidate for a fresh name."""
        h, p = state
        extra = [(acc(s), acc(t)) for s, t in eqs]
        names = set()
        for s, t in [(s, t) for _, s, t in guard_pairs(p)] + extra:
            names |= free_vars(s) | free_vars(t)
        return [((h2, substitute(p, mv.sigma)), mv.sigma)
                for mv, h2 in pi_worlds(h, (p,), self.gen, extra, names)], False

    def _matching(self, state: tuple[History, Process], lab: Label, body: Formula):
        """The successors of the steps that answer the label
        (lts.late_answers); a binder is renamed to a fresh name, which the
        history and the body take.  Pi successors are always complete.  An
        early input label is refused, as the early checker refuses the late
        ones."""
        if lab.kind == "in":
            raise UnhousedVariable(f"label kind {lab.kind!r} needs the early mode")
        h, p = state
        out = []
        for t in late_answers(lab, late_transitions(h, p, self.th, self.gen)):
            if lab.binder is None:
                out.append(((h, t.target), body))
                continue
            fresh = self.gen.fresh(lab.binder)
            tgt = substitute(t.target, Substitution.of({t.label.binder: Var(fresh)}))
            b = subst_formula(body, Substitution.of({lab.binder: Var(fresh)}))
            out.append(((h.after(replace(lab, binder=fresh)), tgt), b))
        return out, True


def check_pi(
    p: Process, f: Formula, th: Theory, cfg: CheckConfig = CheckConfig(),
    history: Optional[History] = None,
) -> Sat:
    """Three-valued satisfaction for the pi-fragment logic (late labels).
    The names the checker mints avoid every name of p, f and the history."""
    if isinstance(p, ExtendedProcess):
        raise NotPiFragment("check_pi covers the pi fragment only")
    fv = sorted(proc_free_vars(p) | {v for v in formula_vars(f) if not v.startswith("?")})
    h = history if history is not None else History.inputs_for(*fv)
    checker = _OMChecker(th, cfg)
    checker.gen.reserve(h.names() | proc_free_vars(p) | bound_names(p) | formula_vars(f))
    return checker.eval((h, p), f)


def model_check(p: Process | ExtendedProcess, f: Formula, th: Theory,
                cfg: CheckConfig = CheckConfig()) -> Sat:
    """Satisfaction in the mode of `cfg`: check_pi in the late-pi mode,
    check in the early applied-pi mode."""
    return (check_pi if cfg.mode == "late-pi" else check)(p, f, th, cfg)


# ---------------------------------------------------------------------------
# Concrete syntax

class _FParser(Reader):
    """The formula grammar, on the shared reader's cursor and term rule.
    `tt`, `ff` and `tau` are whole identifiers, read as such only where a
    formula or a label starts."""

    def _word(self, text: str) -> bool:
        """Consume the identifier `text` if it comes next."""
        t = self.peek()
        if t.kind == "ident" and t.text == text:
            self.pos += 1
            return True
        return False

    # Implications nest to the right and chains of & and \/ to the left,
    # one level per operator; a modality or a parenthesis is one level too.
    def formula(self) -> Formula:
        base = self.depth
        left = self.disjunct()
        if self.accept("=>"):
            self.descend()
            left = Implies(left, self.formula())
        self.depth = base
        return left

    def disjunct(self) -> Formula:
        # '\/' for disjunction; '|' kept as alias
        base = self.depth
        out = self.conjunct()
        while self.accept("\\/") or self.accept("|"):
            self.descend()
            out = Or(out, self.conjunct())
        self.depth = base
        return out

    def conjunct(self) -> Formula:
        base = self.depth
        out = self.unary()
        while self.accept("&"):
            self.descend()
            out = And(out, self.unary())
        self.depth = base
        return out

    def unary(self) -> Formula:
        if self._word("tt"):
            return Top()
        if self._word("ff"):
            return Bottom()
        base = self.depth
        t = self.peek()
        if t.kind not in ("<", "[", "("):
            left = self.term()
            if self.accept("!="):
                return neq(left, self.term())
            self.expect("=", "'=' or '!='")
            return Equal(left, self.term())
        self.next()
        if t.kind == "(":
            self.descend()
            f = self.formula()
            self.expect(")", "')'")
        else:
            lab = self.label()
            close = ">" if t.kind == "<" else "]"
            self.expect(close, repr(close))
            self.descend()
            f = (Diamond if close == ">" else Box)(lab, self.unary())
        self.depth = base
        return f

    def label(self) -> Label:
        if self._word("tau"):
            return Label("tau")
        chan = self.term()
        if self.accept("!"):
            if self.accept("("):
                binder = self.expect("ident", "a binder").text
                self.expect(")", "')'")
                return Label("out", chan, binder=binder)
            return Label("free-out", chan, payload=self.term())
        self.expect("?", "'!' or '?'")
        if self.accept("("):
            binder = self.expect("ident", "a binder").text
            self.expect(")", "')'")
            return Label("late-in", chan, binder=binder)
        return Label("in", chan, payload=self.term())


def parse_formula(text: str) -> Formula:
    p = _FParser(text)
    f = p.formula()
    p.end()
    return f


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
        return f"<{f.label.rendered()}>{pretty_formula(f.body, 3)}"
    if isinstance(f, Box):
        return f"[{f.label.rendered()}]{pretty_formula(f.body, 3)}"
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


def _enabling_tags(node, side: int, label: Label, th: Theory,
                   cfg: CheckConfig) -> list[Formula]:
    """Constraint formulas of worlds in which `side`'s process gains a
    transition matching `label` (used in the box branch of the generation)."""
    if cfg.mode == "late-pi":
        h, p, q = node
        guards = guard_pairs((p, q)[side])
        # a fresh extension enabling each mismatch, then each match
        return ([neq(s, t) for k, s, t in guards if k == "!="]
                + [Equal(s, t) for k, s, t in guards if k == "=" and s != t])
    gen = NameGen()
    tags: list[Formula] = []
    a, b = node
    ep = (a, b)[side]
    moves, _ = representative_worlds((a, b), th, gen)
    checker = _FMChecker(th, cfg)
    for mv in moves:
        refined = apply_world_move(ep, mv, th)
        lab = _subst_label(label, mv.sigma)
        targets, _ = checker._matching(refined, lab, Top())
        if targets:
            tags.append(_move_constraints(mv))
    return tags


def _formulas_from_strategy(s: Strategy, th: Theory, cfg: CheckConfig,
                            guard_both: bool = False) -> tuple[Formula, Formula]:
    """Candidate pair (phi_L, phi_R): phi_L biased to the left process,
    phi_R to the right.  A refine step guards the formula of the side that
    moves next, or with `guard_both` both formulas."""
    if isinstance(s, StaticLeaf):
        eq = Equal(s.left_recipe, s.right_recipe)
        ne = neq(s.left_recipe, s.right_recipe)
        return (eq, ne) if s.equal_on == "a" else (ne, eq)
    if isinstance(s, CapabilityLeaf):
        mover = Diamond(s.label, Top())
        tags = _enabling_tags(s.node, 1 - s.side, s.label, th, cfg) if s.node else []
        other = Box(s.label, disj(tags))
        return (mover, other) if s.side == 0 else (other, mover)
    if isinstance(s, RefineNode):
        l, r = _formulas_from_strategy(s.child, th, cfg, guard_both)
        guard = _move_constraints(s.move)
        mover_side = _strategy_side(s.child)
        if guard_both or mover_side == 0:
            l = Implies(guard, l)
        if guard_both or mover_side == 1:
            r = Implies(guard, r)
        return (l, r)
    if isinstance(s, MoveNode):
        subs = [_formulas_from_strategy(c, th, cfg, guard_both) for c in s.children]
        mover = Diamond(s.label, conj(p[s.side] for p in subs))
        other = Box(s.label, disj(p[1 - s.side] for p in subs))
        return (mover, other) if s.side == 0 else (other, mover)
    raise TypeError(s)


def _strategy_side(s: Strategy) -> int:
    if isinstance(s, (CapabilityLeaf, MoveNode)):
        return s.side
    if isinstance(s, RefineNode):
        return _strategy_side(s.child)
    return 0


def _candidate_pairs(s: Strategy, th: Theory, cfg: CheckConfig):
    yield _formulas_from_strategy(s, th, cfg)
    # fallback: guard every refine step on both sides
    yield _formulas_from_strategy(s, th, cfg, guard_both=True)


def distinguish(
    p: Process,
    q: Process,
    th: Theory,
    cfg: CheckConfig = CheckConfig(),
):
    """Emit a left-biased and a right-biased distinguishing formula, both
    self-checked against the model checker; or NotDistinguished/Unknown."""
    verdict = check_bisim(p, q, th, cfg)
    if isinstance(verdict, Bisimilar):
        return NotDistinguished()
    if isinstance(verdict, Unknown):
        return verdict

    if cfg.mode != "late-pi":
        # the game's root pair: a private name of one side is renamed apart
        # from the other side's free names
        p, q = early_root(p, q, th, cfg)

    def sat(proc, f):
        return model_check(proc, f, th, cfg)

    attempts = []
    for fl, fr in _candidate_pairs(verdict.strategy, th, cfg):
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
