"""Process and extended-process ASTs, the concrete textual language, parser,
pretty-printer, alpha-canonicalization, and the extended-process normal form.

Concrete syntax (keywords, no Unicode):

    0                      deadlock
    out(C, M). P           send M on channel C
    in(C, x). P            receive on channel C, binding x
    tau. P                 silent prefix
    [s = t] P              match guard
    [s != t] P             mismatch guard
    new x, y. P            name restriction
    P | Q                  parallel ('|' binds loosest)
    P + Q                  choice
    rep P                  replication
    if s = t then P else Q sugar for [s = t] P + [s != t] Q

Extended processes:  new x. new y. { u = M, v = N } | P
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .terms import (
    ParseError, Reader, Substitution, Term, Theory, Var,
    free_vars as term_free_vars, normalize, render_term,
)

__all__ = [
    "Process", "Deadlock", "Send", "Receive", "Match", "Mismatch", "New",
    "Parallel", "Choice", "Replicate", "TauPrefix", "ExtendedProcess",
    "ParseError", "parse", "parse_process", "pretty", "free_vars",
    "alpha_canonicalize", "substitute", "alpha_equiv", "guard_pairs",
    "make_extended", "make_successor", "rename_apart", "guards_and_outputs",
    "is_pi_fragment", "has_replication", "canonical_render",
    "unfold_replication",
]


# ---------------------------------------------------------------------------
# AST


class Process:
    """A process node: one of the ten node types below.  Each declares its
    fields, in order, as `__slots__`, and beside them the role of each field
    as one letter of `_roles`: `t` a Term, `b` a binder (a str that binds in
    the node's subprocesses, not in its terms), `p` a subprocess.  Terms
    come first, then at most one binder, then the subprocesses, so field
    order is traversal order.  From the roles each type gets `_parts` (its
    terms, its binder or None, its subprocesses), `_subs` (the
    subprocesses alone) and `_rebuild`, the inverse of `_parts`; these
    drive every walk over the syntax except rendering, printing, parsing
    and the transition rules, which stay per type.

    Nodes are built positionally and immutable.  Equal fields give equal
    nodes and equal hashes; the hash is computed once, at construction.
    Every node also carries lazily filled `_fv`/`_bn` slots: its free and
    bound names, computed once (see free_vars, bound_names).
    """
    __slots__ = ("_hash", "_fv", "_bn")
    _roles = ""

    def __init_subclass__(cls):
        names, roles = cls.__slots__, cls._roles
        if len(roles) != len(names) or not re.fullmatch("t*b?p*", roles):
            raise TypeError(f"{cls.__name__}: roles {roles!r} do not fit "
                            f"the fields {names}")
        # the type's name is hashed with the fields, so that node types
        # differ; __eq__ compares the fields after the hash
        cls._tag = cls.__name__
        cls._fields = staticmethod(_tuple_getter(names))
        cls._nterms, cls._nbinders = nt, nb = roles.count("t"), roles.count("b")
        cls._subs = staticmethod(_tuple_getter(names[nt + nb:]))

    def __init__(self, *fields):
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, got {len(fields)}")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((self._tag, *fields)))

    def _parts(self) -> tuple[tuple[Term, ...], Optional[str], tuple[Process, ...]]:
        """The node's terms, its binder (None if it has none) and its
        subprocesses."""
        values, nt = self._fields(self), self._nterms
        if self._nbinders:
            return values[:nt], values[nt], values[nt + 1:]
        return values[:nt], None, values[nt:]

    def _rebuild(self, terms, binder: Optional[str], subs) -> Process:
        """A node of this type with the given parts, as _parts gives them."""
        if binder is None:
            return type(self)(*terms, *subs)
        return type(self)(*terms, binder, *subs)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (type(other) is type(self) and other._hash == self._hash
                and self._fields(other) == self._fields(self))

    def __repr__(self):
        return pretty(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")


def _tuple_getter(names: tuple[str, ...]):
    """The function giving the tuple of an object's attributes `names`."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(names[0])
        return lambda q: (get(q),)
    return lambda q: ()


class Deadlock(Process):
    __slots__ = ()
    _roles = ""


class Send(Process):
    __slots__ = ("channel", "payload", "continuation")
    _roles = "ttp"


class Receive(Process):
    __slots__ = ("channel", "binder", "continuation")
    _roles = "tbp"


class Match(Process):
    __slots__ = ("left", "right", "continuation")
    _roles = "ttp"


class Mismatch(Process):
    __slots__ = ("left", "right", "continuation")
    _roles = "ttp"


class New(Process):
    __slots__ = ("binder", "continuation")
    _roles = "bp"


class Parallel(Process):
    __slots__ = ("left", "right")
    _roles = "pp"


class Choice(Process):
    __slots__ = ("left", "right")
    _roles = "pp"


class Replicate(Process):
    __slots__ = ("body",)
    _roles = "p"


class TauPrefix(Process):
    __slots__ = ("continuation",)
    _roles = "p"


def if_then_else(s: Term, t: Term, then_p: Process, else_p: Process) -> Choice:
    """if s = t then P else Q  desugars to  [s = t] P + [s != t] Q."""
    return Choice(Match(s, t, then_p), Mismatch(s, t, else_p))


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha handling


_NO_NAMES: frozenset[str] = frozenset()


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    # reuse an operand when it already holds the union: nodes then share sets
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _without(s: frozenset[str], x: str) -> frozenset[str]:
    return s - {x} if x in s else s


def free_vars(p: Process) -> frozenset[str]:
    try:
        return p._fv
    except AttributeError:
        pass
    terms, binder, subs = p._parts()
    fv = _NO_NAMES
    for t in terms:
        fv = _union(fv, term_free_vars(t))
    scope = _NO_NAMES
    for k in subs:
        scope = _union(scope, free_vars(k))
    if binder is not None:
        scope = _without(scope, binder)
    fv = _union(fv, scope)
    object.__setattr__(p, "_fv", fv)
    return fv


def bound_names(p: Process) -> frozenset[str]:
    try:
        return p._bn
    except AttributeError:
        pass
    _, binder, subs = p._parts()
    bn = _NO_NAMES
    for k in subs:
        bn = _union(bn, bound_names(k))
    if binder is not None:
        bn = _union(bn, frozenset((binder,)))
    object.__setattr__(p, "_bn", bn)
    return bn


def _fresh_avoiding(base: str, avoid: set[str]) -> str:
    base = base.split("#", 1)[0] or "x"
    if base not in avoid:
        return base
    i = 1
    while f"{base}#{i}" in avoid:
        i += 1
    return f"{base}#{i}"


def substitute(p: Process, sub: Substitution, avoid: frozenset[str] = frozenset(),
               th: Optional[Theory] = None) -> Process:
    """Capture-avoiding substitution; binders clashing with the substitution's
    range (or `avoid`) are renamed, e.g. the bound name x becomes x#1.  A
    subtree that nothing changes is returned as it is.  With a theory `th`,
    each term the substitution rebuilds is normalized under it, to the
    shared object of the theory's normal-form table: a process whose terms
    are normal then gives one whose terms are normal, with no walk over the
    terms it leaves alone."""
    if sub.is_identity() and not avoid:
        return p
    bound = bound_names(p)
    if sub._map.keys().isdisjoint(free_vars(p)) and (not bound or (
            bound.isdisjoint(avoid) and bound.isdisjoint(sub._map)
            and all(bound.isdisjoint(term_free_vars(t)) for _, t in sub.bindings))):
        return p  # nothing to substitute and no binder to rename (see _substitute)
    taboo = set(sub.range_vars()) | set(sub.domain) | set(avoid)
    return _substitute(p, sub, taboo, th)


def _substitute(q: Process, s: Substitution, taboo: set[str],
                th: Optional[Theory]) -> Process:
    """substitute's traversal; `taboo` collects the names a binder must not
    take, including the binders renamed so far."""
    # a subtree with no substituted free variable and no binder to rename
    # comes back unchanged, so it is returned as it is
    if s._map.keys().isdisjoint(free_vars(q)) and taboo.isdisjoint(bound_names(q)):
        return q
    terms, binder, subs = q._parts()
    inner, ren = s, None
    if binder is not None:
        if binder in s._map:
            inner = Substitution(tuple(b for b in s.bindings if b[0] != binder))
        if binder in taboo or binder in inner.range_vars():
            used = set(taboo) | free_vars(q) | bound_names(q)
            new_binder = _fresh_avoiding(binder, used)
            taboo.add(new_binder)
            ren = Substitution.of({binder: Var(new_binder)})
            binder = new_binder
    if ren is not None:
        subs = [_substitute(k, ren, taboo, th) for k in subs]
    return q._rebuild([_term(s, t, th) for t in terms], binder,
                      [_substitute(k, inner, taboo, th) for k in subs])


def _term(s: Substitution, t: Term, th: Optional[Theory]) -> Term:
    """s(t), normalized under `th` (if given) when s rebuilds it."""
    u = s(t)
    return u if th is None or u is t else normalize(u, th)


def alpha_canonicalize(p: Process) -> Process:
    """Rename binders so that no binder shadows another binder or a free
    variable; the result is stable under pretty/parse round-trips."""
    used: set[str] = set(free_vars(p))

    def go(q: Process, ren: dict[str, str]) -> Process:
        terms, binder, subs = q._parts()
        if terms:
            sub = Substitution.of({x: Var(y) for x, y in ren.items()})
            terms = [sub(t) for t in terms]
        if binder is not None:
            fresh = _fresh_avoiding(binder, used)
            used.add(fresh)
            if fresh != binder or binder in ren:
                ren = {**ren, binder: fresh}
            binder = fresh
        return q._rebuild(terms, binder, [go(k, ren) for k in subs])

    return go(p, {})


def canonical_render(p: Process, mapping: Optional[dict[str, str]] = None) -> str:
    """Rendering with binders renamed positionally; free variables kept.

    `mapping` pre-seeds renamings (shared across the two sides of a game
    node so frame variables and privates rename consistently).
    """
    if mapping is None:
        mapping = {}
    counter = [len({v for v in mapping.values() if v.startswith("%")})]
    return _render(p, mapping, counter)


def _render_name(x: str, mapping: dict[str, str], counter: list[int]) -> str:
    got = mapping.get(x)
    if got is not None:
        return got
    if "#" in x or x.startswith("?"):
        # session-generated identifier: canonicalize positionally so keys
        # are stable across runs
        counter[0] += 1
        name = f"%g{counter[0]}"
        mapping[x] = name
        return name
    return x


def _render_term(t: Term, mapping: dict[str, str], counter: list[int]) -> str:
    if isinstance(t, Var):
        return _render_name(t.name, mapping, counter)
    return f"{t.fn}({','.join([_render_term(a, mapping, counter) for a in t.args])})"


def _render_bound(binder: str, body: Process, mapping: dict[str, str],
                  counter: list[int]) -> tuple[str, str]:
    """The positional name of a binder and the rendering of its scope."""
    old = mapping.get(binder)
    counter[0] += 1
    name = f"%{counter[0]}"
    mapping[binder] = name
    rendered = _render(body, mapping, counter)
    if old is None:
        mapping.pop(binder, None)
    else:
        mapping[binder] = old
    return name, rendered


def _render(q: Process, mapping: dict[str, str], counter: list[int]) -> str:
    """canonical_render's traversal; `counter` numbers the new names."""
    if isinstance(q, Deadlock):
        return "0"
    if isinstance(q, Send):
        ch = _render_term(q.channel, mapping, counter)
        msg = _render_term(q.payload, mapping, counter)
        return f"out({ch},{msg}).{_render(q.continuation, mapping, counter)}"
    if isinstance(q, Receive):
        ch = _render_term(q.channel, mapping, counter)
        b, body = _render_bound(q.binder, q.continuation, mapping, counter)
        return f"in({ch},{b}).{body}"
    if isinstance(q, (Match, Mismatch)):
        left = _render_term(q.left, mapping, counter)
        right = _render_term(q.right, mapping, counter)
        op = "=" if isinstance(q, Match) else "!="
        return f"[{left}{op}{right}]{_render(q.continuation, mapping, counter)}"
    if isinstance(q, New):
        b, body = _render_bound(q.binder, q.continuation, mapping, counter)
        return f"new {b}.{body}"
    if isinstance(q, (Parallel, Choice)):
        left = _render(q.left, mapping, counter)
        op = "|" if isinstance(q, Parallel) else "+"
        return f"({left}{op}{_render(q.right, mapping, counter)})"
    if isinstance(q, Replicate):
        return f"rep({_render(q.body, mapping, counter)})"
    if isinstance(q, TauPrefix):
        return f"tau.{_render(q.continuation, mapping, counter)}"
    raise TypeError(q)


def alpha_equiv(p: Process, q: Process) -> bool:
    return p == q or canonical_render(p) == canonical_render(q)


def _nodes(p: Process) -> list[Process]:
    """Every node of the process, in preorder."""
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        out.append(q)
        todo.extend(reversed(q._subs(q)))
    return out


def guard_pairs(p: Process) -> list[tuple[str, Term, Term]]:
    """All match/mismatch guard pairs occurring anywhere in the process."""
    return guards_and_outputs(p)[0]


def guards_and_outputs(p: Process) -> tuple[list[tuple[str, Term, Term]], list[Term]]:
    """guard_pairs(p) and the payloads of all send prefixes anywhere in the
    process, in preorder, from one walk."""
    guards: list[tuple[str, Term, Term]] = []
    outputs: list[Term] = []
    for q in _nodes(p):
        if isinstance(q, Send):
            outputs.append(q.payload)
        elif isinstance(q, (Match, Mismatch)):
            guards.append(("=" if type(q) is Match else "!=", q.left, q.right))
    return guards, outputs


def is_pi_fragment(p: Process | ExtendedProcess) -> bool:
    """True when `p` is a process whose every message is a bare variable
    (no theory symbols); a frame literal is outside the pi fragment."""
    if isinstance(p, ExtendedProcess):
        return False
    terms, _, subs = p._parts()
    return all(isinstance(t, Var) for t in terms) and all(map(is_pi_fragment, subs))


def has_replication(p: Process) -> bool:
    return isinstance(p, Replicate) or any(map(has_replication, p._subs(p)))


def unfold_replication(p: Process, copies: int) -> Process:
    """Replace every replication by `copies` parallel copies of its body."""
    def go(q: Process) -> Process:
        terms, binder, subs = q._parts()
        subs = [go(k) for k in subs]
        if not isinstance(q, Replicate):
            return q._rebuild(terms, binder, subs)
        if copies <= 0:
            return Deadlock()
        out = body = subs[0]
        for _ in range(copies - 1):
            out = Parallel(out, body)
        return out

    return alpha_canonicalize(go(p))


# ---------------------------------------------------------------------------
# Extended processes


@dataclass(frozen=True, repr=False)
class ExtendedProcess:
    """Normal form: new x1...xn. (frame | body).

    `frame_order` records the extension order of the frame domain so that
    canonical keys are stable; `frame` is idempotent, its domain is disjoint
    from the private names, and the body mentions no frame-domain variable.
    """

    privates: tuple[str, ...]
    frame: Substitution
    body: Process
    frame_order: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.frame_order:
            object.__setattr__(self, "frame_order", tuple(sorted(self.frame.domain)))
        domain = self.frame._map.keys()
        if set(self.frame_order) != domain:
            raise ValueError("frame_order must enumerate the frame domain")
        if not self.frame.is_idempotent():
            raise ValueError("frame must be idempotent")
        if not domain.isdisjoint(self.privates):
            raise ValueError("frame domain clashes with private names")
        if not domain.isdisjoint(free_vars(self.body)):
            raise ValueError("frame must be fully applied to the body")

    def free_variables(self) -> frozenset[str]:
        out = set(free_vars(self.body)) | set(self.frame.domain)
        for _, t in self.frame.bindings:
            out |= term_free_vars(t)
        return frozenset(out - set(self.privates))

    def __repr__(self):
        return pretty_extended(self)


def make_extended(
    privates: tuple[str, ...],
    frame: Substitution,
    body: Process,
    th: Optional[Theory] = None,
    frame_order: tuple[str, ...] = (),
) -> ExtendedProcess:
    """Normalize terms, apply the frame to the body, drop unused privates.
    The entry point for a state from outside the game: parsed, a root, or
    built by the CLI or the logic; a successor that the game derives from a
    normal-form state is built by make_successor."""
    body = substitute(body, frame)
    if th is not None:
        body = _normalize_terms(body, th)
    return _with_frame(privates, frame, body, th, frame_order)


def make_successor(
    privates: tuple[str, ...],
    frame: Substitution,
    body: Process,
    th: Theory,
    frame_order: tuple[str, ...] = (),
) -> ExtendedProcess:
    """make_extended for a state derived from a normal-form one by
    `substitute(..., th=th)`, whose terms are therefore normal: the body is
    not walked again.  Such a body holds no frame variable, so applying the
    frame only renames a binder that clashes with the frame's names, as
    make_extended does; with none, substitute returns at its first test."""
    return _with_frame(privates, frame, substitute(body, frame, th=th), th, frame_order)


def _with_frame(privates: tuple[str, ...], frame: Substitution, body: Process,
                th: Optional[Theory], frame_order: tuple[str, ...]) -> ExtendedProcess:
    """The extended process of a body the frame is applied to: the frame's
    values normalized under `th` (the normal-form table's shared objects)
    and the private names it does not use dropped."""
    if th is not None:
        values = [normalize(t, th) for _, t in frame.bindings]
        if len(frame._map) != len(values) or any(
                n is not t for n, (_, t) in zip(values, frame.bindings)):
            frame = Substitution.of({x: n for n, (x, _) in zip(values, frame.bindings)})
    used = free_vars(body) | frame.range_vars()
    privates = tuple(x for x in privates if x in used)
    domain = frame._map
    order = tuple(x for x in (frame_order or sorted(domain)) if x in domain)
    return ExtendedProcess(privates, frame, body, order)


def _normalize_terms(p: Process, th: Theory) -> Process:
    """Normalize every term; a subtree already in normal form is returned
    as it is, with its cached names."""
    terms, binder, subs = p._parts()
    normal = [normalize(t, th) for t in terms]
    normal_subs = [_normalize_terms(k, th) for k in subs]
    if all(map(operator.is_, normal_subs, subs)) and all(map(operator.eq, normal, terms)):
        return p
    return p._rebuild(normal, binder, normal_subs)


def promote(p: Process | ExtendedProcess) -> ExtendedProcess:
    if isinstance(p, ExtendedProcess):
        return p
    q = p
    privates = []
    while isinstance(q, New):
        privates.append(q.binder)
        q = q.continuation
    return ExtendedProcess(tuple(privates), Substitution.identity(), q)


def rename_apart(ep: ExtendedProcess, clash: Iterable[str],
                 taken: Iterable[str] = ()) -> ExtendedProcess:
    """`ep` with each private name in `clash` renamed (alpha-conversion) to a
    name outside `clash`, `taken` and the private names of `ep`."""
    avoid = set(clash)
    ren: dict[str, str] = {}
    for x in ep.privates:
        if x in avoid:
            ren[x] = _fresh_avoiding(x, avoid | set(taken) | set(ren.values())
                                     | set(ep.privates))
    if not ren:
        return ep
    sub = Substitution.of({x: Var(y) for x, y in ren.items()})
    return ExtendedProcess(
        tuple(ren.get(x, x) for x in ep.privates),
        Substitution.of({x: sub(t) for x, t in ep.frame.bindings}),
        substitute(ep.body, sub), ep.frame_order,
    )


def canonical_key(
    a: ExtendedProcess, b: Optional[ExtendedProcess] = None
) -> str:
    """Alpha-canonical rendering of one extended process or a pair; frame
    variables and private names rename consistently across the pair."""
    mapping: dict[str, str] = {}
    for i, x in enumerate(a.frame_order):
        mapping[x] = f"%w{i}"
    gen_counter = [0]
    if b is None:
        return _render_state(a, mapping, gen_counter)
    shared = dict(mapping)
    left = _render_state(a, shared, gen_counter)
    right = _render_state(b, shared, gen_counter)
    return left + "  ~  " + right


def _render_state(ep: ExtendedProcess, shared: dict[str, str],
                  gen_counter: list[int]) -> str:
    """One side of canonical_key; generated names it meets are added to
    `shared` for the other side."""
    local = dict(shared)
    parts = []
    for j, x in enumerate(ep.privates):
        local[x] = f"%n{j}"
    for i, x in enumerate(ep.frame_order):
        t = ep.frame.get(x)
        parts.append(f"%w{i}={_render_frame_term(t, local, shared, gen_counter)}")
    body = canonical_render(ep.body, local)
    for k, v in local.items():
        if v.startswith("%g"):
            shared.setdefault(k, v)
    return f"nu[{len(ep.privates)}]{{{';'.join(parts)}}}" + body


def _render_frame_term(t: Term, local: dict[str, str], shared: dict[str, str],
                       gen_counter: list[int]) -> str:
    if isinstance(t, Var):
        x = t.name
        got = local.get(x)
        if got is not None:
            return got
        if "#" in x or x.startswith("?"):
            gen_counter[0] += 1
            name = f"%g{gen_counter[0]}a"
            local[x] = name
            shared[x] = name
            return name
        return x
    args = [_render_frame_term(s, local, shared, gen_counter) for s in t.args]
    return f"{t.fn}({','.join(args)})"


# ---------------------------------------------------------------------------
# Pretty printer

def pretty(p: Process) -> str:
    return _pp(p, 0)


def _pp(p: Process, level: int) -> str:
    # level: 0 = parallel context, 1 = choice context, 2 = prefix context
    if isinstance(p, Parallel):
        s = f"{_pp(p.left, 1)} | {_pp(p.right, 1)}"
        return f"({s})" if level >= 1 else s
    if isinstance(p, Choice):
        s = f"{_pp(p.left, 2)} + {_pp(p.right, 2)}"
        return f"({s})" if level >= 2 else s
    if isinstance(p, Deadlock):
        return "0"
    if isinstance(p, Send):
        return f"out({render_term(p.channel)}, {render_term(p.payload)}). {_pp(p.continuation, 2)}"
    if isinstance(p, Receive):
        return f"in({render_term(p.channel)}, {p.binder}). {_pp(p.continuation, 2)}"
    if isinstance(p, Match):
        return f"[{render_term(p.left)} = {render_term(p.right)}] {_pp(p.continuation, 2)}"
    if isinstance(p, Mismatch):
        return f"[{render_term(p.left)} != {render_term(p.right)}] {_pp(p.continuation, 2)}"
    if isinstance(p, New):
        names = [p.binder]
        q = p.continuation
        while isinstance(q, New):
            names.append(q.binder)
            q = q.continuation
        return f"new {', '.join(names)}. {_pp(q, 2)}"
    if isinstance(p, Replicate):
        return f"rep {_pp(p.body, 2)}"
    if isinstance(p, TauPrefix):
        return f"tau. {_pp(p.continuation, 2)}"
    raise TypeError(p)


def pretty_extended(ep: ExtendedProcess) -> str:
    parts = []
    if ep.privates:
        parts.append(f"new {', '.join(ep.privates)}.")
    binds = ", ".join(f"{x} = {render_term(ep.frame.get(x))}" for x in ep.frame_order)
    parts.append("{" + binds + "}")
    if not isinstance(ep.body, Deadlock):
        parts.append("| " + pretty(ep.body))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Parser


class _Parser(Reader):
    """The process grammar, on the shared reader's cursor and term rule."""

    keywords = frozenset({"new", "out", "in", "tau", "if", "then", "else", "rep"})

    # -- processes ---------------------------------------------------------
    # A chain P | Q | R nests to the left, one level per operator.
    def process(self) -> Process:
        base = self.depth
        p = self.choice()
        while self.accept("|"):
            self.descend()
            p = Parallel(p, self.choice())
        self.depth = base
        return p

    def choice(self) -> Process:
        base = self.depth
        p = self.prefix()
        while self.accept("+"):
            self.descend()
            p = Choice(p, self.prefix())
        self.depth = base
        return p

    def _continuation(self) -> Process:
        return self.prefix() if self.accept(".") else Deadlock()

    def prefix(self) -> Process:
        base = self.depth
        self.descend()
        p = self._prefix()
        self.depth = base
        return p

    def _prefix(self) -> Process:
        t = self.next()
        if t.kind == "zero":
            return Deadlock()
        if t.kind == "(":
            p = self.process()
            self.expect(")", "')'")
            return p
        if t.kind == "new":
            names = [self.expect("ident", "a name").text]
            while self.accept(","):
                self.descend()      # one New node per name
                names.append(self.expect("ident", "a name").text)
            self.expect(".", "'.'")
            p = self.prefix()
            for x in reversed(names):
                p = New(x, p)
            return p
        if t.kind == "out":
            self.expect("(", "'('")
            chan = self.term()
            self.expect(",", "','")
            payload = self.term()
            self.expect(")", "')'")
            return Send(chan, payload, self._continuation())
        if t.kind == "in":
            self.expect("(", "'('")
            chan = self.term()
            self.expect(",", "','")
            binder = self.expect("ident", "a binder").text
            self.expect(")", "')'")
            return Receive(chan, binder, self._continuation())
        if t.kind == "tau":
            return TauPrefix(self._continuation())
        if t.kind == "[":
            left = self.term()
            op = self.next()
            if op.kind not in ("=", "!="):
                raise self.error(op, "'=' or '!='", op.text)
            right = self.term()
            self.expect("]", "']'")
            return (Match if op.kind == "=" else Mismatch)(left, right, self.prefix())
        if t.kind == "if":
            left = self.term()
            self.expect("=", "'='")
            right = self.term()
            self.expect("then", "'then'")
            then_p = self.prefix()
            self.expect("else", "'else'")
            return if_then_else(left, right, then_p, self.prefix())
        if t.kind == "rep":
            return Replicate(self.prefix())
        raise self.error(t, "a process")

    # -- extended processes --------------------------------------------------
    def restrictions(self) -> list[str]:
        """The names of leading 'new x, ..., y.' prefixes."""
        names: list[str] = []
        while self.accept("new"):
            names.append(self.expect("ident", "a name").text)
            while self.accept(","):
                names.append(self.expect("ident", "a name").text)
            self.expect(".", "'.'")
        return names

    def frame_and_body(self, privates: list[str]) -> ExtendedProcess:
        """The '{ u = M, ... }' frame literal and the optional '| P' after
        the restrictions `privates`; the caller checks the end of input.
        A frame that breaks an ExtendedProcess invariant, or binds a
        variable twice, is an error at its '{'."""
        brace = self.expect("{", "'{'")
        bindings: list[tuple[str, Term]] = []
        if self.peek().kind != "}":
            while True:
                name = self.expect("ident", "a frame variable").text
                self.expect("=", "'='")
                bindings.append((name, self.term()))
                if not self.accept(","):
                    break
        self.expect("}", "'}'")
        body = alpha_canonicalize(self.process()) if self.accept("|") else Deadlock()
        order = tuple(name for name, _ in bindings)
        if len(set(order)) != len(order):
            raise self.error(brace, "a frame that binds each variable once")
        try:
            return ExtendedProcess(tuple(privates), Substitution(tuple(bindings)),
                                   body, order)
        except ValueError as exc:
            raise self.error(brace, f"a well-formed frame ({exc})") from None

    def whole_process(self) -> Process:
        proc = self.process()
        self.end()
        return alpha_canonicalize(proc)


def parse_process(src: str) -> Process:
    return _Parser(src).whole_process()


def parse(src: str) -> Process | ExtendedProcess:
    """Parse a process or an extended process (frame literal form)."""
    p = _Parser(src)
    # an extended process is 'new x, ..., y.' prefixes followed by '{';
    # any other input is parsed again from its first token as a process
    try:
        privates = p.restrictions()
    except ParseError:
        privates = None
    if privates is not None and p.peek().kind == "{":
        ep = p.frame_and_body(privates)   # a bad frame is reported before trailing input
        p.end()
        return ep
    p.pos = 0
    return p.whole_process()
