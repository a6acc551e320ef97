"""Labelled transition systems.

Early applied-pi transitions work on normal-form extended processes under an
environment of private names.  Transitions surface observer-facing labels:
channels appear as recipes through the frame (the alias device), outputs
extend the frame at a fresh variable, and inputs come back symbolic, to be
instantiated with caller-chosen recipe payloads.

The late system for the pi fragment carries a history of extruded names and
inputs; mismatch is resolved through respectful substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .frames import Frame, deducible
from .names import NameGen
from .syntax import (
    Choice, Deadlock, ExtendedProcess, Match, Mismatch, New, Parallel,
    Process, Receive, Replicate, Send, TauPrefix, free_vars, has_replication,
    is_pi_fragment, make_extended, substitute,
)
from .terms import (
    Entailment, Substitution, Term, Theory, Var, entails_neq, eq_mod,
    free_vars as term_free_vars, normalize, render_term,
)

__all__ = [
    "ReplicationUnbounded", "NotPiFragment", "Transition", "TransitionSet",
    "InputSchema", "early_transitions", "barbs", "History", "respects",
    "history_entails_neq", "LateTransition", "late_transitions",
]


class ReplicationUnbounded(Exception):
    pass


class NotPiFragment(Exception):
    pass


# ---------------------------------------------------------------------------
# Internal one-step structure (below the top-level frame)


@dataclass(frozen=True)
class _Tau:
    residual: Process


@dataclass(frozen=True)
class _Out:
    chan: Term
    payload: Term
    opened: tuple[str, ...]
    residual: Process


@dataclass(frozen=True)
class _In:
    chan: Term
    binder: str
    residual: Process


def _wrap_news(names: Iterable[str], p: Process) -> Process:
    for x in reversed(tuple(names)):
        if x in free_vars(p):
            p = New(x, p)
    return p


def _trans(env: frozenset[str], p: Process, th: Theory, gen: NameGen,
           allow_replication: bool) -> tuple[list, bool]:
    """All one-step actions of `p` under private names `env`.

    Returns (steps, unknown) where unknown records that some mismatch guard
    was UNKNOWN, i.e. further transitions may exist that could not be
    confirmed.
    """
    if isinstance(p, Deadlock):
        return [], False
    if isinstance(p, TauPrefix):
        return [_Tau(p.continuation)], False
    if isinstance(p, Send):
        return [_Out(p.channel, p.payload, (), p.continuation)], False
    if isinstance(p, Receive):
        binder = gen.fresh(p.binder)
        residual = substitute(p.continuation, Substitution.of({p.binder: Var(binder)}))
        return [_In(p.channel, binder, residual)], False
    if isinstance(p, Match):
        if eq_mod(p.left, p.right, th):
            return _trans(env, p.continuation, th, gen, allow_replication)
        return [], False
    if isinstance(p, Mismatch):
        verdict = entails_neq(env, p.left, p.right, th)
        if verdict is Entailment.HOLDS:
            return _trans(env, p.continuation, th, gen, allow_replication)
        return [], verdict is Entailment.UNKNOWN
    if isinstance(p, New):
        fresh = gen.fresh(p.binder)
        cont = substitute(p.continuation, Substitution.of({p.binder: Var(fresh)}))
        steps, unknown = _trans(env | {fresh}, cont, th, gen, allow_replication)
        out = []
        for s in steps:
            if isinstance(s, _Tau):
                out.append(_Tau(_wrap_news((fresh,), s.residual)))
            elif isinstance(s, _Out):
                if fresh in term_free_vars(s.chan):
                    continue  # Res: bound name may not occur in the label
                if fresh in term_free_vars(s.payload):
                    out.append(_Out(s.chan, s.payload, (fresh,) + s.opened, s.residual))
                else:
                    out.append(_Out(s.chan, s.payload, s.opened,
                                    _wrap_news((fresh,), s.residual)))
            elif isinstance(s, _In):
                if fresh in term_free_vars(s.chan):
                    continue
                out.append(_In(s.chan, s.binder, _wrap_news((fresh,), s.residual)))
        return out, unknown
    if isinstance(p, Choice):
        l, ul = _trans(env, p.left, th, gen, allow_replication)
        r, ur = _trans(env, p.right, th, gen, allow_replication)
        return l + r, ul or ur
    if isinstance(p, Parallel):
        l, ul = _trans(env, p.left, th, gen, allow_replication)
        r, ur = _trans(env, p.right, th, gen, allow_replication)
        out = []
        for s in l:
            out.append(_lift(s, p.right, right=True))
        for s in r:
            out.append(_lift(s, p.left, right=False))
        out.extend(_close_pairs(l, r, th))
        out.extend(_close_pairs(r, l, th, flipped=True))
        return out, ul or ur
    if isinstance(p, Replicate):
        steps, unknown = _trans(env, p.body, th, gen, allow_replication)
        if not allow_replication:
            if steps:
                raise ReplicationUnbounded(
                    "replication would fire and no unfolding budget remains"
                )
            return [], unknown
        out = []
        for s in steps:
            out.append(_lift(s, p, right=True))  # Rep-act: A | !P
        for o in steps:
            if not isinstance(o, _Out):
                continue
            for i in steps:
                if not isinstance(i, _In):
                    continue
                if eq_mod(o.chan, i.chan, th):
                    residual = Parallel(
                        Parallel(o.residual,
                                 substitute(i.residual,
                                            Substitution.of({i.binder: o.payload}))),
                        p,
                    )
                    out.append(_Tau(_wrap_news(o.opened, residual)))
        return out, unknown
    raise TypeError(p)


def _lift(step, other: Process, right: bool):
    def par(res: Process) -> Process:
        return Parallel(res, other) if right else Parallel(other, res)

    if isinstance(step, _Tau):
        return _Tau(par(step.residual))
    if isinstance(step, _Out):
        return _Out(step.chan, step.payload, step.opened, par(step.residual))
    return _In(step.chan, step.binder, par(step.residual))


def _close_pairs(outs, ins, th: Theory, flipped: bool = False):
    """Close-l/r: a bound output meets an input on an equal channel."""
    result = []
    for o in outs:
        if not isinstance(o, _Out):
            continue
        for i in ins:
            if not isinstance(i, _In):
                continue
            if eq_mod(o.chan, i.chan, th):
                instantiated = substitute(
                    i.residual, Substitution.of({i.binder: o.payload})
                )
                pair = (instantiated, o.residual) if flipped else (o.residual, instantiated)
                result.append(_Tau(_wrap_news(o.opened, Parallel(*pair))))
    return result


# ---------------------------------------------------------------------------
# Top-level transitions


@dataclass(frozen=True)
class Label:
    kind: str            # "tau" | "out" | "in"
    channel: Optional[Term] = None
    payload: Optional[Term] = None   # input payload recipe
    binder: Optional[str] = None     # bound-output frame variable

    def rendered(self) -> str:
        if self.kind == "tau":
            return "tau"
        if self.kind == "out":
            return f"{render_term(self.channel)}!({self.binder})"
        return f"{render_term(self.channel)}?{render_term(self.payload)}"


@dataclass(frozen=True)
class Transition:
    label: Label
    target: ExtendedProcess
    raw_channel: Optional[Term] = None  # channel as written (may be private)


@dataclass(frozen=True)
class InputSchema:
    """A symbolic input: concrete payloads are supplied by the caller."""

    channel: Term                      # recipe for the channel
    raw_channel: Term                  # channel as it appears in the process
    instantiate: Callable[[Term], ExtendedProcess] = field(compare=False)

    def __hash__(self):
        return hash(("schema", self.channel, self.raw_channel))


@dataclass(frozen=True)
class TransitionSet:
    transitions: tuple[Transition, ...]
    inputs: tuple[InputSchema, ...]
    unknown: bool  # a mismatch guard was UNKNOWN: the set may be incomplete
    dropped_channels: tuple[Term, ...] = ()  # channels with no recipe found


def _channel_recipe(ep: ExtendedProcess, chan: Term, th: Theory,
                    extra_privates: Iterable[str] = ()) -> Optional[Term]:
    chan = normalize(chan, th)
    privates = set(ep.privates) | set(extra_privates)
    if not term_free_vars(chan) & privates:
        return chan
    frame = Frame(frozenset(privates), ep.frame, ep.frame_order)
    return deducible(frame, chan, th)


def early_transitions(
    env: frozenset[str],
    ep: ExtendedProcess,
    th: Theory,
    gen: Optional[NameGen] = None,
    allow_replication: bool = False,
) -> TransitionSet:
    """Open early transitions of a normal-form extended process.

    Input transitions come back as InputSchema entries; outputs extend the
    frame at a fresh variable; channels on labels are recipes through the
    frame.  Channels that mention private material with no recipe are
    unobservable and reported in dropped_channels.
    """
    gen = gen or NameGen()
    env_all = frozenset(env) | set(ep.privates)
    steps, unknown = _trans(env_all, ep.body, th, gen, allow_replication)

    transitions: list[Transition] = []
    inputs: list[InputSchema] = []
    dropped: list[Term] = []
    for step in steps:
        if isinstance(step, _Tau):
            target = make_extended(ep.privates, ep.frame, step.residual, th,
                                   ep.frame_order)
            transitions.append(Transition(Label("tau"), target))
        elif isinstance(step, _Out):
            recipe = _channel_recipe(ep, step.chan, th, step.opened)
            if recipe is None:
                dropped.append(normalize(step.chan, th))
                continue
            u = gen.fresh("v")
            new_frame = Substitution(
                ep.frame.bindings + ((u, normalize(step.payload, th)),)
            )
            target = make_extended(
                ep.privates + step.opened, new_frame, step.residual, th,
                ep.frame_order + (u,),
            )
            transitions.append(Transition(Label("out", recipe, binder=u), target,
                                          raw_channel=normalize(step.chan, th)))
        else:
            recipe = _channel_recipe(ep, step.chan, th)
            if recipe is None:
                dropped.append(normalize(step.chan, th))
                continue

            def instantiate(payload: Term, _step=step) -> ExtendedProcess:
                message = normalize(ep.frame(payload), th)
                body = substitute(
                    _step.residual, Substitution.of({_step.binder: message}),
                    avoid=frozenset(ep.privates),
                )
                return make_extended(ep.privates, ep.frame, body, th, ep.frame_order)

            inputs.append(InputSchema(recipe, normalize(step.chan, th), instantiate))

    transitions.sort(key=lambda t: t.label.rendered())
    inputs.sort(key=lambda s: render_term(s.channel))
    return TransitionSet(tuple(transitions), tuple(inputs), unknown, tuple(dropped))


def barbs(ep: ExtendedProcess, th: Theory, gen: Optional[NameGen] = None) -> frozenset[Term]:
    """Channels (recipes, up to normal form) of enabled observable actions."""
    ts = early_transitions(frozenset(), ep, th, gen)
    out: set[Term] = set()
    for t in ts.transitions:
        if t.label.kind == "out":
            out.add(normalize(t.label.channel, th))
    for s in ts.inputs:
        out.add(normalize(s.channel, th))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Histories and the late system for the pi fragment


@dataclass(frozen=True)
class History:
    """Ordered record of extruded names (kind "o") and inputs (kind "i")."""

    events: tuple[tuple[str, Term], ...] = ()

    def __post_init__(self):
        outs = [t for k, t in self.events if k == "o"]
        if len(outs) != len(set(outs)):
            raise ValueError("output identifiers must be pairwise distinct")

    def output(self, name: str) -> "History":
        return History(self.events + (("o", Var(name)),))

    def input(self, term: Term) -> "History":
        return History(self.events + (("i", term),))

    def names(self) -> frozenset[str]:
        out: set[str] = set()
        for _, t in self.events:
            out |= term_free_vars(t)
        return frozenset(out)

    def outputs(self) -> tuple[str, ...]:
        return tuple(t.name for k, t in self.events if k == "o")

    def rendered(self) -> str:
        return ".".join(
            f"{render_term(t)}^{k}" for k, t in self.events
        ) or "e"

    @staticmethod
    def inputs_for(*vars_: str) -> "History":
        h = History()
        for v in vars_:
            h = h.input(Var(v))
        return h


def respects(sub: Substitution, h: History) -> bool:
    """sub respects h iff for every split h = h'.x^o.h'': x is fixed and no
    variable seen before x maps to a term mentioning x."""
    seen: set[str] = set()
    for kind, t in h.events:
        if kind == "o":
            x = t.name  # outputs are variables
            if sub(Var(x)) != Var(x):
                return False
            for y in seen:
                if x in term_free_vars(sub(Var(y))):
                    return False
        seen |= term_free_vars(t)
    return True


def history_entails_neq(h: History, s: Term, t: Term) -> bool:
    """No substitution respecting h equates s and t (pi fragment: variables)."""
    if not isinstance(s, Var) or not isinstance(t, Var):
        raise NotPiFragment("history entailment works on variables only")
    if s == t:
        return False
    fresh = Var("?merge")
    candidates = [
        Substitution.of({s.name: t}),
        Substitution.of({t.name: s}),
        Substitution.of({s.name: fresh, t.name: fresh}),
    ]
    return not any(respects(c, h) for c in candidates)


@dataclass(frozen=True)
class LateTransition:
    kind: str                 # "tau" | "free-out" | "bound-out" | "late-in"
    channel: Optional[Term]
    payload: Optional[Term]   # free output payload
    binder: Optional[str]     # bound output / late input binder
    target: Process

    def rendered(self) -> str:
        if self.kind == "tau":
            return "tau"
        if self.kind == "free-out":
            return f"{render_term(self.channel)}!{render_term(self.payload)}"
        if self.kind == "bound-out":
            return f"{render_term(self.channel)}!({self.binder})"
        return f"{render_term(self.channel)}?({self.binder})"


def _check_pi(p: Process) -> None:
    if not is_pi_fragment(p):
        raise NotPiFragment("process uses theory function symbols")
    if has_replication(p):
        raise NotPiFragment("late transitions cover the finite pi fragment")


def late_transitions(h: History, p: Process, th: Theory,
                     gen: Optional[NameGen] = None) -> list[LateTransition]:
    """Late semantics for the finite pi-calculus with mismatch."""
    _check_pi(p)
    gen = gen or NameGen()

    def go(hist: History, q: Process) -> list[LateTransition]:
        if isinstance(q, Deadlock):
            return []
        if isinstance(q, TauPrefix):
            return [LateTransition("tau", None, None, None, q.continuation)]
        if isinstance(q, Send):
            return [LateTransition("free-out", q.channel, q.payload, None,
                                   q.continuation)]
        if isinstance(q, Receive):
            binder = gen.fresh(q.binder)
            residual = substitute(q.continuation,
                                  Substitution.of({q.binder: Var(binder)}))
            return [LateTransition("late-in", q.channel, None, binder, residual)]
        if isinstance(q, Match):
            if q.left == q.right:
                return go(hist, q.continuation)
            return []
        if isinstance(q, Mismatch):
            if history_entails_neq(hist, q.left, q.right):
                return go(hist, q.continuation)
            return []
        if isinstance(q, New):
            fresh = gen.fresh(q.binder)
            cont = substitute(q.continuation,
                              Substitution.of({q.binder: Var(fresh)}))
            inner = go(hist.output(fresh), cont)
            out = []
            for s in inner:
                if s.kind == "free-out" and s.payload == Var(fresh):
                    if s.channel == Var(fresh):
                        continue
                    out.append(LateTransition("bound-out", s.channel, None,
                                              fresh, s.target))
                    continue
                mentioned = set()
                if s.channel is not None:
                    mentioned |= term_free_vars(s.channel)
                if s.payload is not None:
                    mentioned |= term_free_vars(s.payload)
                if fresh in mentioned:
                    continue
                out.append(LateTransition(s.kind, s.channel, s.payload, s.binder,
                                          New(fresh, s.target)))
            return out
        if isinstance(q, Choice):
            return go(hist, q.left) + go(hist, q.right)
        if isinstance(q, Parallel):
            left, right = go(hist, q.left), go(hist, q.right)
            out = []
            for s in left:
                if s.binder is not None and s.binder in free_vars(q.right):
                    continue
                out.append(LateTransition(s.kind, s.channel, s.payload, s.binder,
                                          Parallel(s.target, q.right)))
            for s in right:
                if s.binder is not None and s.binder in free_vars(q.left):
                    continue
                out.append(LateTransition(s.kind, s.channel, s.payload, s.binder,
                                          Parallel(q.left, s.target)))
            for o, i, swap in _comm_candidates(left, right):
                if o.kind == "bound-out":
                    body = Parallel(
                        o.target,
                        substitute(i.target, Substitution.of({i.binder: Var(o.binder)})),
                    )
                    if swap:
                        body = Parallel(body.right, body.left)
                    out.append(LateTransition("tau", None, None, None,
                                              New(o.binder, body)))
                else:
                    body = Parallel(
                        o.target,
                        substitute(i.target, Substitution.of({i.binder: o.payload})),
                    )
                    if swap:
                        body = Parallel(body.right, body.left)
                    out.append(LateTransition("tau", None, None, None, body))
            return out
        raise TypeError(q)

    def _comm_candidates(left, right):
        for o in left:
            if o.kind in ("free-out", "bound-out"):
                for i in right:
                    if i.kind == "late-in" and i.channel == o.channel:
                        yield o, i, False
        for o in right:
            if o.kind in ("free-out", "bound-out"):
                for i in left:
                    if i.kind == "late-in" and i.channel == o.channel:
                        yield o, i, True

    return go(h, p)
