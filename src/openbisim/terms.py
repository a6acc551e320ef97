"""Message terms, substitutions, convergent rewriting, and equational
unification for pluggable finitary theories.

Terms are built from one global namespace of identifiers: a name is simply a
variable that some binder owns.  A Theory packages a signature, an ordered
convergent rule list, and the narrowing depth used for E-unification.
The reader at the end (one tokenizer, one cursor, one term rule and one
ParseError) reads terms, theory rules, processes and formulas alike.
"""

from __future__ import annotations

import enum
import itertools
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import corpus, kernel

__all__ = [
    "Term", "Var", "App", "Substitution", "RewriteRule", "Theory",
    "UnifierSet", "Entailment", "UnknownSymbol", "NonTermination",
    "TheoryError", "ParseError", "normalize", "eq_mod", "unify_mod", "fresh_for",
    "entails_neq", "free_vars", "subterms", "term_size", "parse_term",
    "render_term", "load_theory", "parse_theory", "dy_asym", "dy_blind",
]


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True, repr=False)
class Var(Term):
    __slots__ = ("name", "_hash", "_fv")
    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("v", self.name)))
        object.__setattr__(self, "_fv", None)   # filled by free_vars on demand

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return type(other) is Var and other.name == self.name

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class App(Term):
    __slots__ = ("fn", "args", "_hash", "_fv")
    fn: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "_hash", hash(("a", self.fn, self.args)))
        object.__setattr__(self, "_fv", None)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is App
            and other._hash == self._hash
            and other.fn == self.fn
            and other.args == self.args
        )

    def __repr__(self) -> str:
        return render_term(self)


_NO_VARS: frozenset[str] = frozenset()


def free_vars(t: Term) -> frozenset[str]:
    cached = t._fv  # type: ignore[union-attr]
    if cached is not None:
        return cached
    if isinstance(t, Var):
        out = frozenset((t.name,))
    else:
        # reuse the widest set an argument already has when it holds the
        # union, as syntax._union does for process nodes: terms then share
        # sets; a variable argument with no set of its own is not given one
        args = t.args  # type: ignore[union-attr]
        widest = _NO_VARS
        for a in args:
            fv = a._fv if type(a) is Var else free_vars(a)
            if fv is not None and len(fv) > len(widest):
                widest = fv
        if all((a.name in widest) if type(a) is Var else (a._fv <= widest)
               for a in args):
            out = widest
        else:
            names = set(widest)
            for a in args:
                if type(a) is Var:
                    names.add(a.name)
                else:
                    names |= a._fv
            out = frozenset(names)
    object.__setattr__(t, "_fv", out)
    return out


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.fn
    return f"{t.fn}({', '.join(render_term(a) for a in t.args)})"


# ---------------------------------------------------------------------------
# Substitutions


def _binding_name(b: tuple[str, Term]) -> str:
    return b[0]


@dataclass(frozen=True, repr=False)
class Substitution:
    """Finite map from variables to terms, applied simultaneously.

    Bindings are kept sorted so rendering is canonical.  Most substitutions
    in this tool (frames, unifiers, world refinements) are additionally
    idempotent; that invariant is checked where required via is_idempotent().
    """

    __slots__ = ("bindings", "_map", "_hash")
    bindings: tuple[tuple[str, Term], ...]

    def __post_init__(self) -> None:
        kept = [b for b in self.bindings
                if not (type(b[1]) is Var and b[1].name == b[0])]
        if len(dict(kept)) == len(kept):
            items = tuple(sorted(kept, key=_binding_name))
        else:
            items = tuple(sorted(kept, key=lambda b: (b[0], render_term(b[1]))))
        object.__setattr__(self, "bindings", items)
        object.__setattr__(self, "_map", dict(items))
        object.__setattr__(self, "_hash", hash(items))

    def is_idempotent(self) -> bool:
        dom = self._map.keys()
        return all(dom.isdisjoint(free_vars(t)) for _, t in self.bindings)

    @staticmethod
    def of(mapping: Mapping[str, Term] | Iterable[tuple[str, Term]]) -> "Substitution":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        return Substitution(tuple(items))

    @staticmethod
    def identity() -> "Substitution":
        return _IDENTITY

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def range_vars(self) -> frozenset[str]:
        out: set[str] = set()
        for _, t in self.bindings:
            out |= free_vars(t)
        return frozenset(out)

    def get(self, x: str) -> Optional[Term]:
        return self._map.get(x)

    def __call__(self, t: Term) -> Term:
        return apply_map(t, self._map) if self._map else t

    def compose(self, other: "Substitution") -> "Substitution":
        """Return s such that t(s) == (t(self))(other) for all terms t."""
        out: dict[str, Term] = {}
        for x, t in self.bindings:
            out[x] = other(t)
        for x, t in other.bindings:
            if x not in out:
                out[x] = t
        return Substitution.of({x: t for x, t in out.items() if Var(x) != t})

    def restrict(self, keep: Iterable[str]) -> "Substitution":
        keep = set(keep)
        return Substitution(tuple((x, t) for x, t in self.bindings if x in keep))

    def rename(self, mapping: Mapping[str, str]) -> "Substitution":
        ren = Substitution.of({x: Var(y) for x, y in mapping.items()})
        return Substitution(
            tuple((mapping.get(x, x), ren(t)) for x, t in self.bindings)
        )

    def is_identity(self) -> bool:
        return not self.bindings

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and other.bindings == self.bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{x} -> {render_term(t)}" for x, t in self.bindings)
        return "{" + inner + "}"


_IDENTITY = Substitution(())


# ---------------------------------------------------------------------------
# Theories


class TheoryError(Exception):
    pass


class UnknownSymbol(TheoryError):
    pass


class NonTermination(TheoryError):
    """Rewrite steps exceeded the configured ceiling (broken user theory)."""


@dataclass(frozen=True)
class RewriteRule:
    lhs: App
    rhs: Term

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, App):
            raise TheoryError("rule left side must be an application")
        if not free_vars(self.rhs) <= free_vars(self.lhs):
            raise TheoryError(
                f"rule right side has variables outside the left side: "
                f"{render_term(self.lhs)} -> {render_term(self.rhs)}"
            )

    def variables(self) -> frozenset[str]:
        return free_vars(self.lhs)

    def __repr__(self) -> str:
        return f"{render_term(self.lhs)} -> {render_term(self.rhs)}"


def _is_subterm_rule(rule: RewriteRule) -> bool:
    return any(s == rule.rhs for s in subterms(rule.lhs)) or (
        isinstance(rule.rhs, App) and not rule.rhs.args
    )


@dataclass(frozen=True)
class Theory:
    """Signature (symbol -> arity), ordered convergent rules, narrowing bound.

    A theory is read from a `.thy` file by load_theory or parse_theory; the
    bundled ones are the files of the corpus package (dy_asym and dy_blind
    load two of them).  `saturation_complete`, unless given, holds when
    every rule is a subterm rule (_is_subterm_rule).

    `memo` holds every memo table computed under the theory, by name (the
    normal forms, the unifiers, static equivalence, the payload tables of
    bisim, ...).  It is made empty with each Theory and never compared, so
    a copy made by dataclasses.replace starts with empty tables.  Each
    table is keyed on the exact values of its arguments; the one exception
    is the unifier table's extra entry per problem for its generated names
    renamed (unify_mod).  Tables that hold names minted by a NameGen live on
    the game or checker that owns the generator."""

    name: str
    signature: Mapping[str, int]
    rules: tuple[RewriteRule, ...]
    unification_bound: int = 6
    rewrite_ceiling: int = 10_000
    saturation_complete: Optional[bool] = None

    memo: defaultdict = field(default_factory=lambda: defaultdict(dict),
                              init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signature", dict(self.signature))
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            for s in itertools.chain(subterms(rule.lhs), subterms(rule.rhs)):
                if isinstance(s, App):
                    self._check_symbol(s)
        if self.saturation_complete is None:
            object.__setattr__(
                self, "saturation_complete",
                all(_is_subterm_rule(r) for r in self.rules),
            )

    def _check_symbol(self, t: App) -> None:
        arity = self.signature.get(t.fn)
        if arity is None:
            raise UnknownSymbol(f"undeclared symbol {t.fn!r} in theory {self.name}")
        if arity != len(t.args):
            raise UnknownSymbol(
                f"symbol {t.fn!r} used with {len(t.args)} arguments, declared /{arity}"
            )

    def check_term(self, t: Term) -> None:
        for s in subterms(t):
            if isinstance(s, App):
                self._check_symbol(s)

    def symbols(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self.signature.items()))

    def __hash__(self) -> int:
        return hash((self.name, tuple(self.signature.items()), self.rules))


# ---------------------------------------------------------------------------
# Rewriting


def normalize(t: Term, th: Theory) -> Term:
    """Unique normal form of `t` under exhaustive innermost rewriting."""
    memo = th.memo["nf"]
    cached = memo.get(t)
    if cached is not None:
        return cached
    th.check_term(t)
    nf = kernel.normalize(t, th)
    memo[t] = nf
    memo[nf] = nf
    return nf


def normalize_root(t: App, th: Theory) -> Term:
    """Normal form of an application whose arguments are normal forms.

    Innermost rewriting of such a term can only start at its root, so when
    no rule's left side matches there the term is its own normal form;
    otherwise it is rewritten by `normalize`, under the theory's step
    ceiling.  The result is looked up in and recorded in the normal-form
    table, so equal results are one shared object."""
    memo = th.memo["nf"]
    cached = memo.get(t)
    if cached is not None:
        return cached
    for rule in th.rules:
        if rule.lhs.fn == t.fn and match_term(rule.lhs, t, rule.variables()) is not None:
            return normalize(t, th)
    memo[t] = t
    return t


def eq_mod(s: Term, t: Term, th: Theory) -> bool:
    """Equality modulo the theory: identical normal forms."""
    return s == t or normalize(s, th) == normalize(t, th)


# ---------------------------------------------------------------------------
# Syntactic unification


def syntactic_unify(pairs: Sequence[tuple[Term, Term]]) -> Optional[Substitution]:
    """Most general syntactic unifier of the pairs, or None."""
    solved = solved_unifier(pairs)
    if solved is None:
        return None
    return Substitution.of({x: _resolved(t, solved) for x, t in solved.items()})


def solved_unifier(pairs: Sequence[tuple[Term, Term]]) -> Optional[dict[str, Term]]:
    """The most general syntactic unifier of the pairs in triangular form,
    or None.  A variable is bound to a term whose variables may be bound in
    turn; the map is acyclic.  syntactic_unify resolves it into a
    Substitution; a caller that only inspects the bindings need not."""
    for a, b in pairs:
        if isinstance(a, App) and isinstance(b, App) and (
            a.fn != b.fn or len(a.args) != len(b.args)
        ):
            return None
    solved: dict[str, Term] = {}
    work = list(pairs)
    while work:
        a, b = work.pop()
        a, b = _resolve(a, solved), _resolve(b, solved)
        if a == b:
            continue
        if isinstance(a, Var):
            if _occurs(a.name, b, solved):
                return None
            solved[a.name] = b
        elif isinstance(b, Var):
            if _occurs(b.name, a, solved):
                return None
            solved[b.name] = a
        else:
            if a.fn != b.fn or len(a.args) != len(b.args):
                return None
            work.extend(zip(a.args, b.args))
    return solved


def _resolve(t: Term, solved: dict[str, Term]) -> Term:
    while isinstance(t, Var) and t.name in solved:
        t = solved[t.name]
    return t


def _resolved(t: Term, solved: dict[str, Term]) -> Term:
    t = _resolve(t, solved)
    if isinstance(t, Var):
        return t
    return App(t.fn, tuple(_resolved(a, solved) for a in t.args))


def _occurs(x: str, t: Term, solved: dict[str, Term]) -> bool:
    t = _resolve(t, solved)
    if isinstance(t, Var):
        return t.name == x
    fv = free_vars(t)
    if solved.keys().isdisjoint(fv):     # nothing below resolves further
        return x in fv
    return any(_occurs(x, a, solved) for a in t.args)


def apply_map(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous (non-composing) substitution; needs no idempotence.
    Subterms it leaves unchanged are returned as they are."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if mapping.keys().isdisjoint(free_vars(t)):
        return t
    return App(t.fn, tuple(apply_map(a, mapping) for a in t.args))


def match_term(pattern: Term, t: Term, pattern_vars: frozenset[str]) -> Optional[dict[str, Term]]:
    """One-way matching: bindings b over pattern_vars with pattern[b] == t."""
    bindings: dict[str, Term] = {}
    if _match(pattern, t, pattern_vars, bindings):
        return bindings
    return None


def _match(p: Term, u: Term, pattern_vars: frozenset[str],
           bindings: dict[str, Term]) -> bool:
    if isinstance(p, Var):
        if p.name in pattern_vars:
            if p.name in bindings:
                return bindings[p.name] == u
            bindings[p.name] = u
            return True
        return p == u
    if isinstance(u, Var) or p.fn != u.fn or len(p.args) != len(u.args):
        return False
    return all(_match(a, b, pattern_vars, bindings) for a, b in zip(p.args, u.args))


# ---------------------------------------------------------------------------
# Generated names up to renaming
#
# The unifier table (unify_mod) also keys each problem under one renaming
# of its generated names, so that problems differing only in session-minted
# names share one solve.  It is the one memo table not keyed on exact
# content alone, and it pays for itself: without it the hash-and-sign check
# runs 8,659 narrowing solves instead of 273.


def _generated_renaming(names: Iterable[str]) -> dict[str, str]:
    """An order-preserving renaming of generated names onto canonical ones.

    Generated names are ``base#digits``.  For each base, the digit strings
    form a forest under the prefix relation (``12`` is the parent of
    ``123``); each is renamed to its parent's new digits followed by its rank
    among its siblings, padded to the siblings' common width.  Any two names
    then compare, and are prefixes of each other, exactly as before: these
    are the only relations between names that the sorts by rendered terms
    can observe, so a computation on renamed inputs gives the renamed
    result.  A base with a suffix that is not a digit string is left as it
    is.
    """
    ordered = sorted(x for x in names if "#" in x)
    ren: dict[str, str] = {}
    i, n = 0, len(ordered)
    while i < n:
        cut = ordered[i].index("#") + 1
        head = ordered[i][:cut]
        j = i + 1
        while j < n and ordered[j].startswith(head):   # one base: contiguous
            j += 1
        group = ordered[i:j]
        i = j
        digits = [x[cut:] for x in group]
        joined = "".join(digits)
        if not (all(digits) and joined.isascii() and joined.isdigit()):
            continue
        ren.update(_prefix_forest_renaming(head, digits))
    return ren


def _prefix_forest_renaming(head: str, digits: list[str]) -> dict[str, str]:
    """The renaming of _generated_renaming for one base, from its sorted
    digit strings, in one pass that builds the prefix forest."""
    children: dict[Optional[str], list[str]] = {None: []}
    stack: list[str] = []
    for d in digits:
        while stack and not d.startswith(stack[-1]):
            stack.pop()
        children[stack[-1] if stack else None].append(d)
        children[d] = []
        stack.append(d)
    new: dict[Optional[str], str] = {None: ""}
    ren: dict[str, str] = {}
    todo: list[Optional[str]] = [None]
    while todo:
        parent = todo.pop()
        kids = children[parent]
        width = len(str(len(kids) - 1))
        for k, d in enumerate(kids):
            new[d] = new[parent] + str(k).zfill(width)
            ren[head + d] = head + new[d]
            todo.append(d)
    return ren


# ---------------------------------------------------------------------------
# E-unification by narrowing

NARROW_PREFIX = "?"
@dataclass(frozen=True)
class UnifierSet:
    """Complete-up-to-bound set of E-unifiers.

    `truncated` means the narrowing search hit the depth bound while steps
    remained; downstream consumers must treat "empty but truncated" as
    UNKNOWN, not as disequality.
    """

    substitutions: tuple[Substitution, ...]
    truncated: bool = False

    def __iter__(self) -> Iterator[Substitution]:
        return iter(self.substitutions)

    def __bool__(self) -> bool:
        return bool(self.substitutions)


def _rename_rule(rule: RewriteRule, start: int) -> tuple[App, Term]:
    """The rule with its sorted variables renamed ?r<start>, ?r<start+1>, ..."""
    names = sorted(rule.variables())
    sub = Substitution.of({x: Var(f"?r{start + i}") for i, x in enumerate(names)})
    return sub(rule.lhs), sub(rule.rhs)  # type: ignore[return-value]


def _nonvar_positions(t: Term, pos: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], App]]:
    if isinstance(t, App):
        yield pos, t
        for i, a in enumerate(t.args):
            yield from _nonvar_positions(a, pos + (i,))


def _replace(t: Term, pos: tuple[int, ...], new: Term) -> Term:
    if not pos:
        return new
    assert isinstance(t, App)
    i = pos[0]
    args = list(t.args)
    args[i] = _replace(args[i], pos[1:], new)
    return App(t.fn, tuple(args))


def _canonical_unifier(sub: Substitution, keep: frozenset[str], th: Theory) -> Substitution:
    """Restrict to `keep`, normalize ranges, rename narrowing vars positionally."""
    sub = Substitution.of(
        {x: normalize(t, th) for x, t in sub.restrict(keep).bindings}
    )
    fresh_vars = sorted(
        v for v in sub.range_vars() if v.startswith(NARROW_PREFIX)
    )
    ren = {v: f"?{i}" for i, v in enumerate(fresh_vars)}
    return sub.rename(ren)


def _subsumes(general: Substitution, specific: Substitution, keep: frozenset[str]) -> bool:
    """True if `specific` is an instance of `general` over the kept variables."""
    kept = sorted(keep)
    pattern = App("⊤", tuple(general(Var(x)) for x in kept))
    instance = App("⊤", tuple(specific(Var(x)) for x in kept))
    pattern_vars = free_vars(pattern)
    return match_term(pattern, instance, pattern_vars) is not None


def unify_mod(s: Term, t: Term, th: Theory) -> UnifierSet:
    """E-unifiers via syntactic unification interleaved with narrowing.

    Complete up to th.unification_bound narrowing steps for convergent rules;
    each returned substitution is idempotent, restricted to fv(s) U fv(t),
    and sound: eq_mod(s sigma, t sigma).  Deterministic order: lexicographic
    on (domain variable, rendered range term) tuples.

    Memoized in the theory's ``unify`` table on the exact problem and on
    the problem with its generated names renamed by _generated_renaming.  A
    problem met first is solved renamed (_unify_mod_raw); a problem that
    differs from an earlier one only in generated names reads the renamed
    problem's entry.  Either way the unifiers are renamed back in domain
    and range: the renaming keeps every comparison and prefix relation
    between names, so the solver's answer to the renamed problem is its
    answer to the problem, renamed, in the same order.
    """
    memo = th.memo["unify"]
    key = (s, t)
    cached = memo.get(key)
    if cached is not None:
        return cached
    ren = _generated_renaming(free_vars(s) | free_vars(t))
    if not ren:
        result = memo[key] = _unify_mod_raw(s, t, th)
        return result
    to = {x: Var(y) for x, y in ren.items()}
    canonical_key = (apply_map(s, to), apply_map(t, to))
    canonical = memo.get(canonical_key)
    if canonical is None:
        canonical = memo[canonical_key] = _unify_mod_raw(*canonical_key, th)
    result = canonical
    if canonical_key != key:
        back = {y: Var(x) for x, y in ren.items()}
        result = UnifierSet(
            tuple(_renamed_unifier(sub, back) for sub in canonical),
            canonical.truncated)
    memo[key] = result
    return result


def _renamed_unifier(sub: Substitution, ren: dict[str, Var]) -> Substitution:
    return Substitution(tuple(
        (ren[x].name if x in ren else x, apply_map(r, ren)) for x, r in sub.bindings))


def _unify_mod_raw(s: Term, t: Term, th: Theory) -> UnifierSet:
    """unify_mod without its memo.

    A narrowing step tries a rule at a position only when the rule's left
    side has the head symbol and arity of the subterm there; no other rule
    can unify with it.  Every rule tried or skipped still takes its block of
    ?r<n> names, so the names of the rules that are tried do not depend on
    the filter: _canonical_unifier numbers the narrowing variables left in
    a solution by their sorted names, where ?r10 sorts before ?r9.
    """
    keep = free_vars(s) | free_vars(t)
    renamed = 0     # ?r<n> names handed out so far
    found: dict[Substitution, None] = {}
    truncated = False

    def solve(a: Term, b: Term, acc: Substitution, depth: int) -> None:
        nonlocal renamed, truncated
        a, b = normalize(a, th), normalize(b, th)
        mgu = syntactic_unify([(a, b)])
        if mgu is not None:
            sol = _canonical_unifier(acc.compose(mgu), keep, th)
            if sol.is_idempotent() and _sound(sol):
                found.setdefault(sol)
        steps = []
        for side, term, other in (("l", a, b), ("r", b, a)):
            for pos, sub in _nonvar_positions(term):
                for rule in th.rules:
                    start = renamed
                    renamed += len(rule.variables())
                    if rule.lhs.fn != sub.fn or len(rule.lhs.args) != len(sub.args):
                        continue
                    lhs, rhs = _rename_rule(rule, start)
                    theta = syntactic_unify([(sub, lhs)])
                    if theta is None:
                        continue
                    steps.append((side, pos, theta, rhs, term, other))
        if not steps:
            return
        if depth <= 0:
            truncated = True
            return
        for side, pos, theta, rhs, term, other in steps:
            narrowed = theta(_replace(term, pos, rhs))
            rest = theta(other)
            nxt = acc.compose(theta)
            if side == "l":
                solve(narrowed, rest, nxt, depth - 1)
            else:
                solve(rest, narrowed, nxt, depth - 1)

    def _sound(sol: Substitution) -> bool:
        return eq_mod(sol(s), sol(t), th)

    solve(s, t, Substitution.identity(), th.unification_bound)

    by_size = sorted(
        found,
        key=lambda sub: (
            sum(term_size(r) for _, r in sub.bindings),
            tuple((x, render_term(r)) for x, r in sub.bindings),
        ),
    )
    minimal: list[Substitution] = []
    for sub in by_size:
        if not any(_subsumes(m, sub, keep) for m in minimal):
            minimal.append(sub)
    ordered = sorted(
        minimal,
        key=lambda sub: tuple((x, render_term(r)) for x, r in sub.bindings),
    )
    return UnifierSet(tuple(ordered), truncated)


# ---------------------------------------------------------------------------
# Freshness and entailment


class Entailment(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


def fresh_for(sub: Substitution, names: Iterable[str]) -> bool:
    """dom(sub) avoids `names` and no range term mentions a name in `names`."""
    names = frozenset(names)
    if sub.domain & names:
        return False
    return not any(free_vars(t) & names for _, t in sub.bindings)


def entails_neq(names: Iterable[str], s: Term, t: Term, th: Theory) -> Entailment:
    """Decide `names |= s != t`: no substitution fresh for `names` may ever
    equate s and t modulo the theory."""
    names = frozenset(names)
    unifiers = unify_mod(s, t, th)
    for sub in unifiers:
        if fresh_for(sub, names):
            return Entailment.FAILS
    if unifiers.truncated:
        return Entailment.UNKNOWN
    return Entailment.HOLDS


# ---------------------------------------------------------------------------
# Reading: one tokenizer, one cursor and one term rule for every grammar
# (terms here, processes in syntax, formulas in logic)


class ParseError(Exception):
    """Text that does not follow its grammar, at a 1-based line and column."""

    def __init__(self, line: int, column: int, expected: str, found: str = ""):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        msg = f"line {line}, column {column}: expected {expected}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)

    def at(self, line: int, column: int) -> "ParseError":
        """This error of one-line text that starts at `column` of `line`
        of a larger input."""
        return ParseError(line, column + self.column - 1, self.expected, self.found)


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|#[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_'#]*)"
    r"|(?P<op>!=|->|=>|\\/|[()\[\]{}.,=+|<>&!?])"
    r"|(?P<zero>0)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


class _Tok(NamedTuple):
    kind: str       # 'ident', 'zero', 'eof', an operator or a keyword
    text: str
    offset: int


def _tokenize(src: str, keywords: frozenset[str]) -> list[_Tok]:
    toks = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        if kind == "bad":
            raise _error(src, m.start(), "a token", text)
        if kind == "op" or (kind == "ident" and text in keywords):
            kind = text
        toks.append(_Tok(kind, text, m.start()))
    toks.append(_Tok("eof", "", len(src)))
    return toks


def _error(src: str, offset: int, expected: str, found: str) -> ParseError:
    line = src.count("\n", 0, offset) + 1
    return ParseError(line, offset - src.rfind("\n", 0, offset), expected, found)


# Deepest nesting the readers accept.  Terms, processes and the checker's
# traversals of them recurse once per level, so a deeper input would
# exhaust the stack instead of being refused.
MAX_NESTING = 1000


class Reader:
    """A cursor over the tokens of one text, shared by every grammar.
    Identifiers in a grammar's `keywords` get their own text as their kind.
    `depth` counts the nesting of the node being read, terms included."""

    keywords: frozenset[str] = frozenset()

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src, self.keywords)
        self.pos = 0
        self.depth = 0

    def error(self, tok: _Tok, expected: str, found: Optional[str] = None) -> ParseError:
        """`expected` was not found at `tok`; line and column are worked
        out here, from the token's offset."""
        return _error(self.src, tok.offset, expected,
                      (tok.text or "end of input") if found is None else found)

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, kind: str) -> bool:
        if self.toks[self.pos].kind == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str = "") -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise self.error(t, what or repr(kind))
        return self.next()

    def descend(self) -> None:
        """Enter one more level of nesting, refusing inputs nested deeper
        than MAX_NESTING.  Callers restore `depth` when the level ends."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(self.peek(), f"at most {MAX_NESTING} levels of nesting")

    def end(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(tok, "end of input")

    def term(self) -> Term:
        t = self.expect("ident", "an identifier")
        if not self.accept("("):
            return Var(t.text)
        self.descend()
        args: list[Term] = []
        if self.peek().kind != ")":
            args.append(self.term())
            while self.accept(","):
                args.append(self.term())
        self.expect(")", "')'")
        self.depth -= 1
        return App(t.text, tuple(args))


def parse_term(text: str) -> Term:
    r = Reader(text)
    t = r.term()
    r.end()
    return t


# ---------------------------------------------------------------------------
# Theory files

_SYM_RE = re.compile(r"^sym\s+([A-Za-z_][A-Za-z0-9_']*)\s*/\s*(\d+)\s*$")
_META_RE = re.compile(r"^meta\s+([a-z_]+)\s*=\s*(\S+)\s*$")


def parse_theory(text: str, name: str = "user") -> Theory:
    """Line-oriented theory format:

        # comment
        sym <name>/<arity>
        rule <lhs> -> <rhs>         (terms in prefix form f(a,b))
        meta unification_bound = 6  (optional overrides)
    """
    signature: dict[str, int] = {}
    rules: list[RewriteRule] = []
    meta: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        if m := _SYM_RE.match(line):
            signature[m.group(1)] = int(m.group(2))
            continue
        if line.split(None, 1)[0] == "rule":
            try:
                r = Reader(code)
                r.next()
                lhs = r.term()
                r.expect("->", "'->'")
                rhs = r.term()
                r.end()
            except ParseError as exc:
                raise exc.at(lineno, 1) from None
            # identifiers that are declared nullary symbols are constants
            lhs = _promote_constants(lhs, signature)
            rhs = _promote_constants(rhs, signature)
            if not isinstance(lhs, App):
                raise TheoryError(f"line {lineno}: rule left side must be an application")
            rules.append(RewriteRule(lhs, rhs))
            continue
        if m := _META_RE.match(line):
            meta[m.group(1)] = m.group(2)
            continue
        raise TheoryError(f"line {lineno}: cannot parse {line!r}")
    kwargs: dict = {}
    for key in ("unification_bound", "rewrite_ceiling"):
        if key in meta:
            if not meta[key].isdecimal():
                raise TheoryError(f"meta {key} must be a non-negative integer")
            kwargs[key] = int(meta[key])
    if "saturation_complete" in meta:
        kwargs["saturation_complete"] = meta["saturation_complete"] in ("true", "1", "yes")
    return Theory(name=name, signature=signature, rules=tuple(rules), **kwargs)


def _promote_constants(t: Term, signature: Mapping[str, int]) -> Term:
    if isinstance(t, Var):
        if signature.get(t.name) == 0:
            return App(t.name, ())
        return t
    return App(t.fn, tuple(_promote_constants(a, signature) for a in t.args))


def load_theory(path: str) -> Theory:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_theory(text, name=name)


# ---------------------------------------------------------------------------
# Bundled theories: each is kept once, as a file of the corpus package


def dy_asym() -> Theory:
    return load_theory(corpus.path("dy-asym.thy"))


def dy_blind() -> Theory:
    return load_theory(corpus.path("dy-blind.thy"))
