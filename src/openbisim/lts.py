"""Labelled transition systems.

One interpreter, `_trans`, gives the one-step actions of a process: taus,
outputs (with the restricted names they open) and inputs (with a fresh
binder).  It runs under a scope, which makes the three decisions in which
the two systems differ: how a mismatch is decided, how a restriction
extends the scope, and whether a restriction whose name is not free in the
residual is put back.

Early applied-pi transitions (`early_transitions`) work on normal-form
extended processes under the private names: a mismatch is decided by
`entails_neq` and a dead restriction is dropped.  Labels are
observer-facing: channels appear as recipes through the frame (the alias
device), outputs extend the frame at a fresh variable, and inputs come back
symbolic, to be instantiated with caller-chosen recipe payloads.

The late system for the pi fragment (`late_transitions`) runs under a
history of extruded names and inputs, each restricted name appended as an
extruded one: a mismatch holds when no respectful substitution equates its
sides, and every restriction is kept.  Its labels map the steps: an output
that opens its payload is a bound output, any other a free output, and an
input is a late input.

Both systems, the game and the logic's modalities name an action by one
`Label`.  Each system has one rule for which transitions of a state answer
a label (`early_answers`, `late_answers`); the game's replies and the model
checker's modalities both use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .frames import Frame, deducible
from .names import NameGen
from .syntax import (
    Choice, Deadlock, ExtendedProcess, Match, Mismatch, New, Parallel,
    Process, Receive, Replicate, Send, TauPrefix, bound_names, free_vars,
    has_replication, is_pi_fragment, make_extended, make_successor, substitute,
)
from .terms import (
    Entailment, Substitution, Term, Theory, Var, entails_neq, eq_mod,
    free_vars as term_free_vars, normalize, render_term,
)

__all__ = [
    "ReplicationUnbounded", "NotPiFragment", "Label", "Transition",
    "TransitionSet", "InputSchema", "early_transitions", "early_answers",
    "rename_frame_var", "barbs", "History", "respects", "history_entails_neq",
    "late_transitions", "late_answers",
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

    def late(self) -> "Transition":
        return Transition(Label("tau"), self.residual)


@dataclass(frozen=True)
class _Out:
    chan: Term
    payload: Term
    opened: tuple[str, ...]
    residual: Process

    def late(self) -> "Transition":
        if self.opened:
            (binder,) = self.opened  # a pi payload is one name
            return Transition(Label("out", self.chan, binder=binder), self.residual)
        return Transition(Label("free-out", self.chan, self.payload), self.residual)


@dataclass(frozen=True)
class _In:
    chan: Term
    binder: str
    residual: Process

    def late(self) -> "Transition":
        return Transition(Label("late-in", self.chan, binder=self.binder), self.residual)


@dataclass(frozen=True)
class _Privates:
    """The early scope: the private names.  A mismatch is decided by
    entails_neq under them, and a restriction whose name is not free in the
    residual is dropped."""

    names: frozenset[str]

    def neq(self, s: Term, t: Term, th: Theory) -> Entailment:
        return entails_neq(self.names, s, t, th)

    def restrict(self, x: str) -> "_Privates":
        return _Privates(self.names | {x})

    @staticmethod
    def close(names: Iterable[str], p: Process) -> Process:
        for x in reversed(tuple(names)):
            if x in free_vars(p):
                p = New(x, p)
        return p


def _trans(scope, p: Process, th: Theory, gen: NameGen,
           allow_replication: bool) -> tuple[list, bool]:
    """All one-step actions of `p` under `scope` (_Privates or _Extruded).

    Returns (steps, unknown) where unknown records that some mismatch guard
    was UNKNOWN, i.e. further transitions may exist that could not be
    confirmed.  A restriction or an input mints its name before the
    recursion, and a left operand is visited before the right one.
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
            return _trans(scope, p.continuation, th, gen, allow_replication)
        return [], False
    if isinstance(p, Mismatch):
        verdict = scope.neq(p.left, p.right, th)
        if verdict is Entailment.HOLDS:
            return _trans(scope, p.continuation, th, gen, allow_replication)
        return [], verdict is Entailment.UNKNOWN
    if isinstance(p, New):
        fresh = gen.fresh(p.binder)
        cont = substitute(p.continuation, Substitution.of({p.binder: Var(fresh)}))
        steps, unknown = _trans(scope.restrict(fresh), cont, th, gen, allow_replication)
        out = []
        for s in steps:
            if isinstance(s, _Tau):
                out.append(_Tau(scope.close((fresh,), s.residual)))
            elif isinstance(s, _Out):
                if fresh in term_free_vars(s.chan):
                    continue  # Res: bound name may not occur in the label
                if fresh in term_free_vars(s.payload):
                    out.append(_Out(s.chan, s.payload, (fresh,) + s.opened, s.residual))
                else:
                    out.append(_Out(s.chan, s.payload, s.opened,
                                    scope.close((fresh,), s.residual)))
            elif isinstance(s, _In):
                if fresh in term_free_vars(s.chan):
                    continue
                out.append(_In(s.chan, s.binder, scope.close((fresh,), s.residual)))
        return out, unknown
    if isinstance(p, Choice):
        l, ul = _trans(scope, p.left, th, gen, allow_replication)
        r, ur = _trans(scope, p.right, th, gen, allow_replication)
        return l + r, ul or ur
    if isinstance(p, Parallel):
        l, ul = _trans(scope, p.left, th, gen, allow_replication)
        r, ur = _trans(scope, p.right, th, gen, allow_replication)
        out = [_lift(s, p.right, right=True) for s in l]
        out += [_lift(s, p.left, right=False) for s in r]
        # Com and Close: an output of one side meets an input of the other
        out += [_Tau(scope.close(o.opened, Parallel(o.residual, received)))
                for o, received in _comms(l, r, th)]
        out += [_Tau(scope.close(o.opened, Parallel(received, o.residual)))
                for o, received in _comms(r, l, th)]
        return out, ul or ur
    if isinstance(p, Replicate):
        steps, unknown = _trans(scope, p.body, th, gen, allow_replication)
        if not allow_replication:
            if steps:
                raise ReplicationUnbounded(
                    "replication would fire and no unfolding budget remains"
                )
            return [], unknown
        out = [_lift(s, p, right=True) for s in steps]  # Rep-act: A | !P
        out += [_Tau(scope.close(o.opened, Parallel(Parallel(o.residual, received), p)))
                for o, received in _comms(steps, steps, th)]  # Rep-close
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


def _comms(outs, ins, th: Theory):
    """Each output of `outs` and input of `ins` on equal channels, with the
    input's residual receiving the output's payload."""
    for o in outs:
        if isinstance(o, _Out):
            for i in ins:
                if isinstance(i, _In) and eq_mod(o.chan, i.chan, th):
                    yield o, substitute(i.residual, Substitution.of({i.binder: o.payload}))


# ---------------------------------------------------------------------------
# Top-level transitions


@dataclass(frozen=True, slots=True)
class Label:
    """An action, as a transition fires it and as a modality names it.

    Kinds: "tau"; "out", a bound output `C!(x)` (early: x is the frame
    variable the payload is exported at; late: an extruded name); "free-out",
    `C!M`; "in", an input `C?M` of the payload recipe M; "late-in", `C?(x)`.
    An early label's channel is a recipe through the frame."""

    kind: str
    channel: Optional[Term] = None
    payload: Optional[Term] = None   # "free-out" and "in"
    binder: Optional[str] = None     # "out" and "late-in"

    def rendered(self) -> str:
        if self.kind == "tau":
            return "tau"
        c = render_term(self.channel)
        if self.kind == "out":
            return f"{c}!({self.binder})"
        if self.kind == "free-out":
            return f"{c}!{render_term(self.payload)}"
        if self.kind == "late-in":
            return f"{c}?({self.binder})"
        return f"{c}?{render_term(self.payload)}"


@dataclass(frozen=True, slots=True)
class Transition:
    label: Label
    target: ExtendedProcess | Process   # a Process in the late system
    raw_channel: Optional[Term] = None  # early output: channel as written (may be private)


@dataclass(frozen=True, slots=True)
class InputSchema:
    """A symbolic input of a normal-form state: concrete payloads are
    supplied by the caller (`instantiate`)."""

    channel: Term                      # recipe for the channel
    raw_channel: Term                  # channel as it appears in the process
    state: ExtendedProcess = field(compare=False)
    binder: str = field(compare=False)
    residual: Process = field(compare=False)   # the binder is free in it
    th: Theory = field(compare=False)

    def __hash__(self):
        return hash(("schema", self.channel, self.raw_channel))

    def instantiate(self, payload: Term) -> ExtendedProcess:
        """The state after the input of the payload recipe `payload`: its
        message, seen through the frame and normalized, substituted for the
        binder, normalizing each term the substitution rebuilds."""
        ep, th = self.state, self.th
        message = normalize(ep.frame(payload), th)
        body = substitute(self.residual, Substitution.of({self.binder: message}),
                          avoid=frozenset(ep.privates), th=th)
        return make_successor(ep.privates, ep.frame, body, th, ep.frame_order)


@dataclass(frozen=True, slots=True)
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
    scope = _Privates(frozenset(ep.privates))
    steps, unknown = _trans(scope, ep.body, th, gen, allow_replication)

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
            inputs.append(InputSchema(recipe, normalize(step.chan, th), ep,
                                      step.binder, step.residual, th))

    transitions.sort(key=lambda t: t.label.rendered())
    inputs.sort(key=lambda s: render_term(s.channel))
    return TransitionSet(tuple(transitions), tuple(inputs), unknown, tuple(dropped))


def early_answers(label: Label, ep: ExtendedProcess, ts: TransitionSet,
                  th: Theory) -> list:
    """The early rule: the transitions of ep (`ts`) that answer `label`, in
    their order.  A tau answers a tau; an output or an input answers when
    the label's channel recipe, seen through ep's frame, equals its raw
    channel.  Input answers are the InputSchema entries; the label's
    payload and binder are not read, and its channel is seen through the
    frame only when some transition of its kind is there to answer."""
    if label.kind == "tau":
        return [t for t in ts.transitions if t.label.kind == "tau"]
    if label.kind == "out":
        candidates = [t for t in ts.transitions if t.label.kind == "out"]
    elif label.kind == "in":
        candidates = ts.inputs
    else:
        raise ValueError(f"label kind {label.kind!r} is not an early label")
    if not candidates:
        return []
    want = normalize(ep.frame(label.channel), th)
    return [t for t in candidates if eq_mod(want, t.raw_channel, th)]


def rename_frame_var(ep: ExtendedProcess, old: str, new: str) -> ExtendedProcess:
    """ep with its frame variable `old` renamed to `new`: an answering
    output's exported variable taken to the label's binder."""
    if old == new:
        return ep
    ren = Substitution.of({old: Var(new)})
    frame = Substitution(
        tuple((new if x == old else x, ren(t)) for x, t in ep.frame.bindings)
    )
    order = tuple(new if x == old else x for x in ep.frame_order)
    body = substitute(ep.body, ren)
    return ExtendedProcess(ep.privates, frame, body, order)


def barbs(ep: ExtendedProcess, th: Theory, gen: Optional[NameGen] = None) -> frozenset[Term]:
    """Channels (recipes, up to normal form) of enabled observable actions."""
    ts = early_transitions(ep, th, gen)
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

    def after(self, label: Label) -> "History":
        """The history after a step labelled `label`: a bound output
        extrudes its binder, a late input records it as an input."""
        if label.kind == "out":
            return self.output(label.binder)
        if label.kind == "late-in":
            return self.input(Var(label.binder))
        return self

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
class _Extruded:
    """The late scope: a history, to which each restricted name is appended
    as extruded.  A mismatch holds when no substitution respecting the
    history equates its sides, and every restriction is kept."""

    h: History

    def neq(self, s: Term, t: Term, th: Theory) -> Entailment:
        return Entailment.HOLDS if history_entails_neq(self.h, s, t) else Entailment.FAILS

    def restrict(self, x: str) -> "_Extruded":
        return _Extruded(self.h.output(x))

    @staticmethod
    def close(names: Iterable[str], p: Process) -> Process:
        for x in reversed(tuple(names)):
            p = New(x, p)
        return p


def late_transitions(h: History, p: Process, th: Theory,
                     gen: Optional[NameGen] = None) -> list[Transition]:
    """Late semantics for the finite pi-calculus with mismatch: the steps of
    `_trans` under the history h.  `gen` must not mint a name of h or p;
    when it is omitted, a generator that reserves them all is used."""
    if not is_pi_fragment(p):
        raise NotPiFragment("process uses theory function symbols")
    if has_replication(p):
        raise NotPiFragment("late transitions cover the finite pi fragment")
    if gen is None:
        gen = NameGen()
        gen.reserve(h.names() | free_vars(p) | bound_names(p))
    steps, _ = _trans(_Extruded(h), p, th, gen, False)
    return [s.late() for s in steps]


def late_answers(label: Label, steps: Iterable[Transition]) -> list[Transition]:
    """The late rule: the steps whose label equals `label` up to the
    binder, in their order."""
    want = (label.kind, label.channel, label.payload)
    return [t for t in steps
            if (t.label.kind, t.label.channel, t.label.payload) == want]
