"""Quasi-open bisimulation game solver, the history-indexed open
bisimulation checker for the pi fragment, and distinguishing strategies.

The game works on pairs of extended processes.  At every node the attacker
may (i) exhibit static inequivalence of the two frames, (ii) refine the
world by a representative refinement (guard unifiers, fresh-private-name
extensions, frame-narrowing substitutions) applied to both sides, or (iii)
play a transition that the other side must match.  The defender wins the
finite game when a closed, validated relation is found.

Distinguishing verdicts are extracted inductively from the removal order of
a greatest-fixpoint computation over the explored graph, so strategies are
minimal-depth.  Bisimilar verdicts come with a RelationWitness which is
re-validated post hoc (validate_witness).
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from . import frames as frames_mod
from .frames import (
    Distinguished as StaticDistinguished, Frame, _recipe_key, enumerate_recipes,
    recipe_images,
)
from .lts import (
    History, InputSchema, NotPiFragment, ReplicationUnbounded, Transition,
    early_transitions, late_transitions, respects,
)
from .names import NameGen
from .syntax import (
    ExtendedProcess, Process, bound_names, canonical_key, canonical_render,
    free_vars, guard_pairs, has_replication, make_extended, output_terms,
    promote, substitute, unfold_replication,
)
from .terms import (
    App, Substitution, Term, Theory, Var, _generated_renaming, _inverse,
    _renamed_term, _shape, apply_map,
    free_vars as term_free_vars, normalize, render_term, solved_unifier,
    subterms, syntactic_unify, unify_mod,
)

__all__ = [
    "CheckConfig", "Verdict", "Bisimilar", "DistinguishedVerdict", "Unknown",
    "WorldMove", "Strategy", "StaticLeaf", "CapabilityLeaf", "RefineNode",
    "MoveNode", "RelationWitness", "quasi_open_check", "open_bisim_pi_check",
    "validate_witness", "representative_worlds", "GameNode", "World",
]


# ---------------------------------------------------------------------------
# Configuration and verdicts


@dataclass(frozen=True)
class CheckConfig:
    max_depth: int = 64
    recipe_depth: int = 2
    unfold: int = 0
    mode: str = "early-applied"        # or "late-pi"
    emit: str = "none"
    max_nodes: int = 200_000

    def __post_init__(self):
        if min(self.max_depth, self.recipe_depth, self.unfold) < 0:
            raise ValueError("bounds must be non-negative")


@dataclass(frozen=True)
class World:
    """Accumulated refinement from the root: environment of extension names,
    a substitution, and the extension frame."""

    env: frozenset[str] = frozenset()
    sigma: Substitution = Substitution.identity()
    ext_names: tuple[str, ...] = ()
    ext_frame: Substitution = Substitution.identity()


@dataclass(frozen=True)
class GameNode:
    a: ExtendedProcess
    b: ExtendedProcess
    world: World
    depth: int


@dataclass(frozen=True, slots=True)
class WorldMove:
    kind: str                       # "subst" | "fresh"
    sigma: Substitution
    guard: Optional[tuple[Term, Term]] = None  # mismatch enabled by a fresh move
    private: Optional[str] = None
    alias: Optional[str] = None

    def describe(self) -> str:
        if self.kind == "subst":
            return "refine " + ", ".join(
                f"{x} = {render_term(t)}" for x, t in self.sigma.bindings
            )
        s, t = self.guard
        return f"fresh {self.private} for {render_term(s)} != {render_term(t)}"

    def formula_sigma(self) -> Substitution:
        """The observer-level substitution: a fresh extension is seen through
        its exported alias, never through the raw private name."""
        if self.kind == "fresh" and self.alias is not None:
            return Substitution.of(
                {x: Var(self.alias) for x in self.sigma.domain}
            )
        return self.sigma


# Strategy trees


@dataclass(frozen=True)
class StaticLeaf:
    left_recipe: Term
    right_recipe: Term
    equal_on: str
    node: tuple[ExtendedProcess, ExtendedProcess] | None = None


@dataclass(frozen=True)
class CapabilityLeaf:
    side: int                 # 0: left moves, 1: right moves
    label: str
    label_data: tuple = ()
    node: tuple = ()


@dataclass(frozen=True)
class RefineNode:
    move: WorldMove
    child: "Strategy"


@dataclass(frozen=True)
class MoveNode:
    side: int
    label: str
    label_data: tuple
    children: tuple["Strategy", ...]   # one per opposing reply


Strategy = StaticLeaf | CapabilityLeaf | RefineNode | MoveNode


def strategy_depth(s: Strategy) -> int:
    if isinstance(s, (StaticLeaf, CapabilityLeaf)):
        return 0
    if isinstance(s, RefineNode):
        return strategy_depth(s.child)
    return 1 + max((strategy_depth(c) for c in s.children), default=0)


@dataclass(frozen=True)
class RelationWitness:
    pairs: tuple[tuple[ExtendedProcess, ExtendedProcess], ...]
    root: tuple[ExtendedProcess, ExtendedProcess]
    mode: str = "early-applied"
    config: CheckConfig = CheckConfig()
    pi_pairs: tuple = ()   # (History, Process, Process) rows in late-pi mode

    def keys(self) -> frozenset[str]:
        return frozenset(canonical_key(a, b) for a, b in self.pairs)


@dataclass(frozen=True)
class Bisimilar:
    witness: RelationWitness


@dataclass(frozen=True)
class DistinguishedVerdict:
    strategy: Strategy


@dataclass(frozen=True)
class Unknown:
    reason: str


Verdict = Bisimilar | DistinguishedVerdict | Unknown


# ---------------------------------------------------------------------------
# Representative world moves


def _all_names(ep: ExtendedProcess) -> frozenset[str]:
    out = set(ep.privates) | set(ep.frame.domain) | ep.free_variables()
    out |= bound_names(ep.body)
    for _, t in ep.frame.bindings:
        out |= term_free_vars(t)
    return frozenset(out)


def _forbidden(states: Iterable["_StateView"]) -> frozenset[str]:
    out: set[str] = set()
    for v in states:
        out |= set(v.privates)
        out |= v.frame.domain
    return frozenset(out)


def _legal(sub: Substitution, forbidden: frozenset[str]) -> bool:
    if not sub.bindings:
        return False
    if sub.domain & forbidden:
        return False
    if sub.range_vars() & forbidden:
        return False
    return sub.is_idempotent()


def _refresh_narrowing(sub: Substitution, gen: NameGen) -> Substitution:
    ren = {
        v: gen.fresh("w") for v in sorted(sub.range_vars()) if v.startswith("?")
    }
    return sub.rename(ren) if ren else sub


def _narrow_patterns(th: Theory) -> dict[str, tuple[Term, ...]]:
    """Rule lhs arguments with variables renamed apart, grouped by head."""
    pats = th._aux.get("narrow_patterns")
    if pats is None:
        out: dict[str, list[Term]] = {}
        for rule in th.rules:
            ren = Substitution.of({
                x: Var(f"?{i}") for i, x in enumerate(sorted(rule.variables()))
            })
            for arg in rule.lhs.args:
                if isinstance(arg, App):
                    out.setdefault(arg.fn, []).append(ren(arg))
        pats = {fn: tuple(v) for fn, v in out.items()}
        th._aux["narrow_patterns"] = pats
    return pats


def _narrowings(t: App, th: Theory) -> tuple[Substitution, ...]:
    """The unifiers of `t` with the narrowing patterns of its head,
    restricted to the variables of `t`, in pattern order.  Memoized in the
    theory's ``narrowings`` table on the term."""
    memo = th._aux.setdefault("narrowings", {})
    got = memo.get(t)
    if got is None:
        out = []
        for pat in _narrow_patterns(th).get(t.fn, ()):
            mgu = syntactic_unify([(t, pat)])
            if mgu is not None:
                out.append(mgu.restrict(term_free_vars(t)))
        got = memo[t] = tuple(out)
    return got


def _demand_patterns(th: Theory) -> tuple[tuple[Term, ...], ...]:
    """Rule lhs terms (and compound arguments) renamed apart, for matching
    future outputs into rules when selecting input payloads."""
    pats = th._aux.get("demand_patterns")
    if pats is None:
        out = []
        for rule in th.rules:
            ren = Substitution.of({
                x: Var(f"?d{i}") for i, x in enumerate(sorted(rule.variables()))
            })
            group = [ren(rule.lhs)]
            for arg in rule.lhs.args:
                if isinstance(arg, App):
                    group.append(ren(arg))
            out.append(tuple(group))
        pats = tuple(out)
        th._aux["demand_patterns"] = pats
    return pats


class _StateView(NamedTuple):
    """The parts of a state that world refinements and payload candidates
    are computed from, and that the payload table's key holds; `names`
    holds every name they mention (and possibly more: the body's bound
    names)."""

    privates: tuple[str, ...]
    frame: Substitution
    frame_order: tuple[str, ...]
    guards: tuple[tuple[str, Term, Term], ...]
    outputs: tuple[Term, ...]
    free: frozenset[str]            # free variables outside the frame domain
    names: frozenset[str]

    @staticmethod
    def of(ep: ExtendedProcess) -> "_StateView":
        range_vars = ep.frame.range_vars()
        domain = ep.frame.domain
        free = (free_vars(ep.body) | range_vars) - domain - frozenset(ep.privates)
        names = free | domain | range_vars | bound_names(ep.body) | frozenset(ep.privates)
        return _StateView(
            ep.privates, ep.frame, ep.frame_order, tuple(guard_pairs(ep.body)),
            tuple(output_terms(ep.body)), free, names,
        )

    def key(self, ren: dict[str, str], th: Theory) -> tuple:
        """Private names, frame bindings, guard pairs and output terms,
        renamed: the terms' shapes and, in one tuple, the renamed names."""
        shapes = [_shape(t, th) for _, t in self.frame.bindings]
        for _, s, t in self.guards:
            shapes.append(_shape(s, th))
            shapes.append(_shape(t, th))
        shapes += [_shape(t, th) for t in self.outputs]
        names = [*self.privates, *(x for x, _ in self.frame.bindings)]
        for _, held in shapes:
            names += held
        return (
            len(self.privates), len(self.frame.bindings),
            tuple([k for k, _, _ in self.guards]), tuple([sh for sh, _ in shapes]),
            tuple([ren.get(x, x) for x in names]),
        )

    def renamed(self, ren: dict[str, str], th: Theory) -> "_StateView":
        def rt(t: Term) -> Term:
            return _renamed_term(t, ren, th)

        return _StateView(
            tuple(ren.get(x, x) for x in self.privates),
            Substitution(tuple((ren.get(x, x), rt(t)) for x, t in self.frame.bindings)),
            tuple(ren.get(x, x) for x in self.frame_order),
            tuple((k, rt(s), rt(t)) for k, s, t in self.guards),
            tuple(rt(t) for t in self.outputs),
            frozenset(ren.get(x, x) for x in self.free),
            frozenset(ren.get(x, x) for x in self.names),
        )


def representative_worlds(
    states: tuple[ExtendedProcess, ...],
    th: Theory,
    gen: NameGen,
    extra_eqs: tuple[tuple[Term, Term], ...] = (),
    extra_neq_vars: frozenset[str] = frozenset(),
) -> tuple[list[WorldMove], bool]:
    """The finite representative set of world refinements for these states.

    Returns (moves, truncated): truncated reports that some unifier search
    hit the narrowing bound, i.e. the set may be incomplete.  The moves are
    computed as templates and their fresh names minted anew per call.  No
    table holds them: the unifier and narrowing tables they are built from
    are memoized already, and keying the states would cost more than it
    saves.
    """
    views = tuple(_StateView.of(ep) for ep in states)
    moves, truncated = _representative_worlds(views, th, extra_eqs, extra_neq_vars)
    out = []
    for mv in moves:
        if mv.kind == "fresh":
            n, w = gen.fresh("n"), gen.fresh("w")
            v = next(iter(mv.sigma.domain))
            out.append(WorldMove("fresh", Substitution.of({v: Var(n)}),
                                 guard=mv.guard, private=n, alias=w))
        else:
            out.append(WorldMove("subst", _refresh_narrowing(mv.sigma, gen)))
    return out, truncated


def _representative_worlds(
    states: tuple[_StateView, ...],
    th: Theory,
    extra_eqs: tuple[tuple[Term, Term], ...],
    extra_neq_vars: frozenset[str],
) -> tuple[list[WorldMove], bool]:
    """Template form: fresh extensions carry placeholder names; substitution
    moves keep canonical narrowing variables."""
    forbidden = _forbidden(states)
    refinable: set[str] = set()
    for v in states:
        refinable |= v.free
    for s, t in extra_eqs:
        refinable |= term_free_vars(s) | term_free_vars(t)
    refinable |= set(extra_neq_vars)
    refinable -= forbidden
    truncated = False
    moves: dict[str, WorldMove] = {}

    eq_pairs: list[tuple[Term, Term]] = list(extra_eqs)
    neq_pairs: list[tuple[Term, Term]] = []
    for v in states:
        for kind, s, t in v.guards:
            eq_pairs.append((s, t))
            if kind == "!=":
                neq_pairs.append((s, t))

    # (a) complete unifier sets of guard pairs (match-enabling splits); only
    # substitutions over free variables change the states (input binders are
    # refined after instantiation, not before)
    for s, t in eq_pairs:
        unifiers = unify_mod(s, t, th)
        truncated = truncated or unifiers.truncated
        for sub in unifiers:
            if sub.domain <= refinable and _legal(sub, forbidden):
                mv = WorldMove("subst", sub)
                moves.setdefault(_move_key(mv), mv)

    # (b) one fresh-private-name extension per free variable of a mismatch
    # guard (or requested by the logic)
    fresh_vars: dict[str, Optional[tuple[Term, Term]]] = {
        v: None for v in extra_neq_vars
    }
    for s, t in neq_pairs:
        for v in term_free_vars(s) | term_free_vars(t):
            if fresh_vars.get(v) is None:
                fresh_vars[v] = (s, t)
    for v in sorted(set(fresh_vars) & (refinable | set(extra_neq_vars)) - forbidden):
        guard = fresh_vars[v] or (Var(v), Var(v))
        mv = WorldMove(
            "fresh", Substitution.of({v: Var("?n")}),
            guard=guard, private="?n", alias="?w",
        )
        moves.setdefault(f"fresh:{v}", mv)

    # (c) frame-narrowing refinements: substitutions that make a frame entry
    # destructible (e.g. z -> pk(w) turning aenc(x, z) into a redex)
    for ep in states:
        for _, value in ep.frame.bindings:
            for sub_t in subterms(value):
                if not isinstance(sub_t, App):
                    continue
                if not term_free_vars(sub_t) & refinable:
                    continue
                for cand in _narrowings(sub_t, th):
                    if cand.domain <= refinable and _legal(cand, forbidden):
                        mv = WorldMove("subst", cand)
                        moves.setdefault(_move_key(mv), mv)

    ordered = sorted(moves.values(), key=lambda m: _move_key(m))
    return ordered, truncated


def _move_key(mv: WorldMove) -> str:
    if mv.kind == "fresh":
        return "fresh:" + ",".join(sorted(mv.sigma.domain))
    return "subst:" + ";".join(
        f"{x}={canonical_render_term(t)}" for x, t in mv.sigma.bindings
    )


def canonical_render_term(t: Term) -> str:
    # narrowing-fresh variables are positional for dedup purposes
    return _render_positional(t, {})


def _render_positional(t: Term, names: dict[str, str]) -> str:
    if isinstance(t, Var):
        x = t.name
        if "#" in x or x.startswith("?"):
            if x not in names:
                names[x] = f"%{len(names)}"
            return names[x]
        return x
    return f"{t.fn}({','.join([_render_positional(a, names) for a in t.args])})"


def apply_world_move(ep: ExtendedProcess, mv: WorldMove, th: Theory) -> ExtendedProcess:
    if mv.kind == "subst":
        frame = Substitution.of({x: mv.sigma(t) for x, t in ep.frame.bindings})
        body = substitute(ep.body, mv.sigma, avoid=frozenset(ep.privates))
        return make_extended(ep.privates, frame, body, th, ep.frame_order)
    # fresh extension: capture the variable as a new private name, export an
    # alias so the name remains sendable
    frame = Substitution.of({x: mv.sigma(t) for x, t in ep.frame.bindings})
    frame = Substitution(frame.bindings + ((mv.alias, Var(mv.private)),))
    body = substitute(ep.body, mv.sigma, avoid=frozenset(ep.privates))
    return make_extended(
        ep.privates + (mv.private,), frame, body, th,
        ep.frame_order + (mv.alias,),
    )


# ---------------------------------------------------------------------------
# Input payload candidates


def _legal_unify(a: Term, b: Term, th: Theory) -> bool:
    """The two terms unify while binding only rule/narrowing variables
    (spelled with '?').  Process variables are rigid here: world moves that
    refine them regenerate the candidate set at the refined node, so only
    exact shapes are relevant at the current one.  Memoized in the theory's
    ``legal_unify`` table on the term pair: sibling nodes of one game test
    the same images against the same guards."""
    memo = th._aux.setdefault("legal_unify", {})
    got = memo.get((a, b))
    if got is None:
        got = memo[(a, b)] = _legal_unify_raw(a, b)
    return got


def _legal_unify_raw(a: Term, b: Term) -> bool:
    """_legal_unify without its memo.  Decided on the unifier's triangular
    solved form, without resolving it into a Substitution: a rigid variable
    may only be bound to a term that resolves to a '?' variable (a
    reorientable renaming into it)."""
    solved = solved_unifier([(a, b)])
    if solved is None:
        return False
    for x, t in solved.items():
        if x.startswith("?"):
            continue
        while type(t) is Var and t.name in solved:
            t = solved[t.name]
        if type(t) is not Var or not t.name.startswith("?"):
            return False
    return True


def _recipe_images(frame: Frame, th: Theory, depth: int,
                   publics: tuple[str, ...], fresh: str):
    """The recipes over a frame's domain, `publics` and `fresh`, and their
    images under the frame; the order is deterministic so two same-domain
    frames align index by index.  The recipe list depends on the domain
    only and is shared (the theory's ``recipes`` table); the images are
    cached per frame (``recipe_images``).  Images are built bottom-up from
    the images of each recipe's arguments (frames.recipe_images), which
    in a convergent theory gives each recipe's normal form without
    rewriting the instantiated recipe again."""
    recipes_cache = th._aux.setdefault("recipes", {})
    key = (frame.order, publics, fresh, depth)
    recipes = recipes_cache.get(key)
    if recipes is None:
        recipes = recipes_cache[key] = tuple(enumerate_recipes(
            frame, th, depth, publics=publics, fresh=(fresh,), dedup=False))
    cache = th._aux.setdefault("recipe_images", {})
    key = (frame.privates, frame.binding.bindings, frame.order, publics,
           fresh, depth)
    images = cache.get(key)
    if images is None:
        images = cache[key] = tuple(recipe_images(frame, recipes, th))
    return recipes, images


def _payload_candidates(
    a: ExtendedProcess,
    b: ExtendedProcess,
    th: Theory,
    cfg: CheckConfig,
    gen_fresh_name: str,
) -> list[Term]:
    """Candidate input payload recipes at a node, relevance-filtered.

    Cached in the theory's ``payload_cache``.  The key is every part of the
    node that _payload_candidates_raw reads: both sides' private names,
    frame bindings, guard pairs and output terms, the publics (free names
    outside the frame domains, such as channel names) and the recipe depth,
    with generated names renamed by an order-preserving renaming
    (_generated_renaming), so nodes that differ only in those names share
    one entry.  The frames' extension order is left out: recipes are
    enumerated in (size, name) order whatever it is.  A miss is computed on
    the renamed states; the cached list holds canonical names and a
    placeholder for the fresh-variable candidate, both renamed back per
    call.
    """
    cache = th._aux.setdefault("payload_cache", {})
    va, vb = _StateView.of(a), _StateView.of(b)
    publics = _publics(va, vb)
    ren = _generated_renaming(va.names | vb.names)
    key = (va.key(ren, th), vb.key(ren, th),
           tuple(ren.get(x, x) for x in publics), cfg.recipe_depth)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _payload_candidates_raw(
            va.renamed(ren, th), vb.renamed(ren, th), th, cfg, "?z")
    back = _inverse(ren)
    back["?z"] = Var(gen_fresh_name)
    return [apply_map(r, back) for r in hit]


def _publics(a: _StateView, b: _StateView) -> tuple[str, ...]:
    """Free names of both states outside the frame domains, sorted."""
    return tuple(sorted((a.free | b.free) - a.frame.domain - b.frame.domain))


def _payload_candidates_raw(
    a: _StateView,
    b: _StateView,
    th: Theory,
    cfg: CheckConfig,
    gen_fresh_name: str,
) -> list[Term]:
    """Always kept: the fresh public variable (symbolic lazy input), the
    frame variables, and free public atoms.  A compound recipe is kept only
    when its image can interact with a reachable guard (directly, via a
    solved guard pattern, or via a term demanded by a future output feeding
    a rewrite rule)."""
    publics = _publics(a, b)
    frame_a = Frame(frozenset(a.privates), a.frame, a.frame_order)
    frame_b = Frame(frozenset(b.privates), b.frame, b.frame_order)

    # interaction targets
    guard_subs: list[Term] = []
    patterns: list[Term] = []
    for v in (a, b):
        for _, s, t in v.guards:
            for g in itertools.chain(subterms(s), subterms(t)):
                if isinstance(g, App):
                    guard_subs.append(g)
            unifiers = unify_mod(s, t, th)
            for sub in unifiers:
                for _, rng in sub.bindings:
                    if isinstance(rng, App):
                        patterns.append(rng)
        for out_t in v.outputs:
            if not isinstance(out_t, App):
                continue  # a bare name being sent demands nothing
            for group in _demand_patterns(th):
                for pat in group:
                    mgu = syntactic_unify([(out_t, pat)])
                    if mgu is None:
                        continue
                    for x, rng in mgu.bindings:
                        if isinstance(rng, App) and not x.startswith("?d"):
                            patterns.append(rng)

    # every target is an application: an application image can only unify
    # with the targets of its head symbol and arity, a variable image with
    # any target
    targets = list(dict.fromkeys(guard_subs + patterns))
    by_head: dict[tuple[str, int], list[Term]] = {}
    for g in targets:
        by_head.setdefault((g.fn, len(g.args)), []).append(g)
    verdicts: dict[Term, bool] = {}     # image -> can it interact?

    def interacts(img: Term) -> bool:
        if isinstance(img, App):
            group = by_head.get((img.fn, len(img.args)), ())
        else:
            group = targets
        if not group:
            return False
        got = verdicts.get(img)
        if got is None:
            got = False
            for g in group:
                if _legal_unify(img, g, th):
                    got = True
                    break
            verdicts[img] = got
        return got

    # A recipe is kept when no kept recipe before it has its pair of images
    # and, unless it is a variable, one of its images can interact; the
    # fresh variable comes first.
    fresh = Var(gen_fresh_name)
    seen: set[tuple[Term, Term]] = {(frame_a.image(fresh, th),
                                     frame_b.image(fresh, th))}
    recipes, images_a = _recipe_images(frame_a, th, cfg.recipe_depth, publics,
                                       gen_fresh_name)
    _, images_b = _recipe_images(frame_b, th, cfg.recipe_depth, publics,
                                 gen_fresh_name)
    kept: list[Term] = []
    for r, ia, ib in zip(recipes, images_a, images_b):
        key = (ia, ib)
        if key in seen:
            continue
        if isinstance(r, Var) or interacts(ia) or interacts(ib):
            seen.add(key)
            kept.append(r)
    kept.sort(key=_recipe_key)
    return [fresh] + kept


# ---------------------------------------------------------------------------
# Game graph exploration (early applied-pi mode)


@dataclass(slots=True)
class _SideMove:
    side: int
    label: str
    label_data: tuple            # structured label for formula generation
    replies: list                # (child key, minted successor pair or None)
    reply_complete: bool         # False if the replier's set may be incomplete

    def reply_keys(self):
        return [k for k, _ in self.replies]


@dataclass(slots=True)
class _Node:
    a: ExtendedProcess
    b: ExtendedProcess
    key: str
    depth: int
    static: object = None
    world_edges: list = field(default_factory=list)   # (WorldMove, key, pair)
    side_moves: list = field(default_factory=list)
    taint: Optional[str] = None
    frontier: bool = False


def _rename_frame_var(ep: ExtendedProcess, old: str, new: str) -> ExtendedProcess:
    if old == new:
        return ep
    ren = Substitution.of({old: Var(new)})
    frame = Substitution(
        tuple((new if x == old else x, ren(t)) for x, t in ep.frame.bindings)
    )
    order = tuple(new if x == old else x for x in ep.frame_order)
    body = substitute(ep.body, ren)
    return ExtendedProcess(ep.privates, frame, body, order)


class _EarlyGame:
    def __init__(self, th: Theory, cfg: CheckConfig, gen: NameGen):
        self.th = th
        self.cfg = cfg
        self.gen = gen
        self.nodes: dict[str, _Node] = {}
        self.truncation = False
        self._trans_cache: dict[ExtendedProcess, object] = {}

    # -- exploration --------------------------------------------------------
    def node_for(self, a: ExtendedProcess, b: ExtendedProcess, depth: int) -> _Node:
        key = canonical_key(a, b)
        node = self.nodes.get(key)
        if node is None:
            node = _Node(a, b, key, depth)
            self.nodes[key] = node
            self._expand(node)
        return node

    def _child(self, a, b, depth: int) -> str:
        key = canonical_key(a, b)
        node = self.nodes.get(key)
        if node is None:
            node = _Node(a, b, key, depth)
            self.nodes[key] = node
            if depth >= self.cfg.max_depth or len(self.nodes) > self.cfg.max_nodes:
                node.frontier = True
                node.taint = "depth bound reached"
                node.static = frames_mod.Equivalent()
            else:
                self._expand(node)
        return key

    def _expand(self, node: _Node, keep_pairs: bool = False) -> None:
        """Static check, world edges and side moves of a node.  Edges and
        replies hold the successor pair only with `keep_pairs` (the
        strategy replay reads them); otherwise just the child key, so an
        explored graph does not keep every successor alive."""
        th, cfg, gen = self.th, self.cfg, self.gen
        a, b = node.a, node.b
        fa = Frame(frozenset(a.privates), a.frame, a.frame_order)
        fb = Frame(frozenset(b.privates), b.frame, b.frame_order)
        node.static = frames_mod.static_equiv(fa, fb, th)
        if isinstance(node.static, frames_mod.UnknownAtDepth):
            node.taint = "static equivalence undecided at depth"
        if isinstance(node.static, StaticDistinguished):
            return

        moves, truncated = representative_worlds((a, b), th, gen)
        if truncated:
            node.taint = node.taint or "unifier search truncated"
            self.truncation = True
        for mv in moves:
            a2 = apply_world_move(a, mv, th)
            b2 = apply_world_move(b, mv, th)
            key = self._child(a2, b2, node.depth + 1)
            if key != node.key:
                node.world_edges.append((mv, key, (a2, b2) if keep_pairs else None))

        ts_a = self._transitions(a)
        ts_b = self._transitions(b)
        if ts_a.unknown or ts_b.unknown:
            node.taint = node.taint or "mismatch entailment unknown"
        if (ts_a.dropped_channels or ts_b.dropped_channels) and not th.saturation_complete:
            node.taint = node.taint or "channel recipe search undecided"

        payloads: Optional[list[Term]] = None
        if ts_a.inputs or ts_b.inputs:
            payloads = _payload_candidates(a, b, th, cfg, self.gen.fresh("z"))

        # both sides' moves reach the same successor pairs (a tau or an input
        # of one side answered by the other); each successor is built and
        # keyed once per node
        instances: dict[tuple[int, Term], ExtendedProcess] = {}
        child_keys: dict[tuple[int, int], tuple[str, tuple]] = {}

        def instantiate(schema: InputSchema, payload: Term) -> ExtendedProcess:
            got = instances.get((id(schema), payload))
            if got is None:
                got = instances[(id(schema), payload)] = schema.instantiate(payload)
            return got

        def reply(pair: tuple[ExtendedProcess, ExtendedProcess]):
            ids = (id(pair[0]), id(pair[1]))
            got = child_keys.get(ids)
            if got is None:
                # the entry holds the pair, so its ids stay unique until the
                # expansion ends
                got = child_keys[ids] = (self._child(*pair, node.depth + 1), pair)
            return (got[0], pair if keep_pairs else None)

        for side, mine, theirs, my_ep, their_ep in (
            (0, ts_a, ts_b, a, b),
            (1, ts_b, ts_a, b, a),
        ):
            reply_complete = not theirs.unknown
            for t in mine.transitions:
                if t.label.kind == "tau":
                    replies = []
                    for r in theirs.transitions:
                        if r.label.kind != "tau":
                            continue
                        pair = (t.target, r.target) if side == 0 else (r.target, t.target)
                        replies.append(reply(pair))
                    node.side_moves.append(_SideMove(
                        side, "tau", ("tau",), replies, reply_complete,
                    ))
                else:
                    # bound output labelled by the mover's channel recipe
                    recipe = t.label.channel
                    u = t.label.binder
                    replies = []
                    for r in theirs.transitions:
                        if r.label.kind != "out":
                            continue
                        if not self._chan_match(recipe, their_ep, r):
                            continue
                        r_target = _rename_frame_var(r.target, r.label.binder, u)
                        pair = (t.target, r_target) if side == 0 else (r_target, t.target)
                        replies.append(reply(pair))
                    node.side_moves.append(_SideMove(
                        side, f"{render_term(recipe)}!({u})",
                        ("out", recipe, u), replies, reply_complete,
                    ))
            for schema in mine.inputs:
                assert payloads is not None
                matching = [
                    s2 for s2 in theirs.inputs
                    if self._schema_match(schema.channel, their_ep, s2)
                ]
                for payload in payloads:
                    target = instantiate(schema, payload)
                    replies = []
                    for s2 in matching:
                        r_target = instantiate(s2, payload)
                        pair = (target, r_target) if side == 0 else (r_target, target)
                        replies.append(reply(pair))
                    node.side_moves.append(_SideMove(
                        side,
                        f"{render_term(schema.channel)}?{render_term(payload)}",
                        ("in", schema.channel, payload), replies, reply_complete,
                    ))

    def _transitions(self, ep: ExtendedProcess):
        ts = self._trans_cache.get(ep)
        if ts is None:
            ts = early_transitions(frozenset(), ep, self.th, self.gen)
            self._trans_cache[ep] = ts
        return ts

    def _chan_match(self, recipe: Term, their_ep: ExtendedProcess, r: Transition) -> bool:
        from .terms import eq_mod
        img = normalize(their_ep.frame(recipe), self.th)
        return eq_mod(img, r.raw_channel, self.th)

    def _schema_match(self, recipe: Term, their_ep: ExtendedProcess, s: InputSchema) -> bool:
        from .terms import eq_mod
        img = normalize(their_ep.frame(recipe), self.th)
        return eq_mod(img, s.raw_channel, self.th)

    # -- fixpoint -----------------------------------------------------------
    def solve(self, root_key: str) -> tuple[dict[str, tuple[int, object]], set[str]]:
        """Greatest fixpoint by iterated removal.  Returns (killed, alive)."""
        killed: dict[str, tuple[int, object]] = {}
        for key, node in self.nodes.items():
            if isinstance(node.static, StaticDistinguished):
                killed[key] = (0, ("static", node.static))
        stratum = 0
        changed = True
        while changed:
            changed = False
            stratum += 1
            new_kills = {}
            for key, node in self.nodes.items():
                if key in killed or key in new_kills or node.frontier:
                    continue
                cert = self._kill_reason(node, killed)
                if cert is not None:
                    new_kills[key] = (stratum, cert)
            if new_kills:
                killed.update(new_kills)
                changed = True
        alive = set(self.nodes) - set(killed)
        return killed, alive

    def _kill_reason(self, node: _Node, killed) -> Optional[object]:
        for mv, key, _ in node.world_edges:
            if key in killed:
                return ("refine", mv, key)
        best = None
        for m in node.side_moves:
            if not m.reply_complete:
                continue
            dead = [k for k in m.reply_keys() if k in killed]
            if len(dead) == len(m.replies):
                cand = ("move", m)
                if not m.replies:
                    return cand  # capability with no reply: immediate
                if best is None:
                    best = cand
        return best


def _build_strategy(game: _EarlyGame, killed, a, b) -> Strategy:
    """Rebuild the distinguishing strategy by replaying from concrete states
    so generated names stay coherent along the path (memoized nodes may have
    been stored under a different session naming)."""
    key = canonical_key(a, b)
    stratum, cert = killed[key]
    node = _Node(a, b, key, 0)
    game.nodes[key] = node
    game._expand(node, keep_pairs=True)
    if cert[0] == "static":
        assert isinstance(node.static, StaticDistinguished)
        st = node.static
        return StaticLeaf(st.left_recipe, st.right_recipe, st.equal_on,
                          node=(a, b))
    if cert[0] == "refine":
        _, mv, child_key = cert
        for mv2, k2, pair in node.world_edges:
            if k2 == child_key:
                return RefineNode(mv2, _build_strategy(game, killed, *pair))
        raise AssertionError("replayed node lost its refine edge")
    _, m = cert
    want = (m.side, m.label_data[0], frozenset(m.reply_keys()))
    for m2 in node.side_moves:
        if (m2.side, m2.label_data[0], frozenset(m2.reply_keys())) != want:
            continue
        if not all(k in killed for k in m2.reply_keys()):
            continue
        if not m2.replies:
            return CapabilityLeaf(m2.side, m2.label, m2.label_data, node=(a, b))
        children = tuple(
            _build_strategy(game, killed, *pair) for _, pair in m2.replies
        )
        return MoveNode(m2.side, m2.label, m2.label_data, children)
    raise AssertionError("replayed node lost its killing move")


def quasi_open_check(
    p: Process | ExtendedProcess,
    q: Process | ExtendedProcess,
    th: Theory,
    cfg: CheckConfig = CheckConfig(),
) -> Verdict:
    """Decide quasi-open bisimilarity of two (extended) processes."""
    gen = NameGen()
    a, b = promote(p), promote(q)
    if has_replication(a.body) or has_replication(b.body):
        if cfg.unfold <= 0:
            raise ReplicationUnbounded(
                "replication requires an unfolding bound (--unfold)"
            )
        a = make_extended(a.privates, a.frame, unfold_replication(a.body, cfg.unfold),
                          th, a.frame_order)
        b = make_extended(b.privates, b.frame, unfold_replication(b.body, cfg.unfold),
                          th, b.frame_order)
    a = make_extended(a.privates, a.frame, a.body, th, a.frame_order)
    b = make_extended(b.privates, b.frame, b.body, th, b.frame_order)
    if a.frame.domain != b.frame.domain:
        raise ValueError("compared processes must export the same frame domain")

    gen.reserve(_all_names(a) | _all_names(b))
    game = _EarlyGame(th, cfg, gen)
    root = game.node_for(a, b, 0)
    killed, alive = game.solve(root.key)

    if root.key in killed:
        return DistinguishedVerdict(_build_strategy(game, killed, a, b))

    # collect the closure actually needed to justify the root
    witness_keys: set[str] = set()
    frontier = [root.key]
    tainted: Optional[str] = None
    while frontier:
        key = frontier.pop()
        if key in witness_keys:
            continue
        witness_keys.add(key)
        node = game.nodes[key]
        if node.taint:
            tainted = tainted or f"{node.taint}"
        if node.frontier:
            tainted = tainted or "depth bound reached"
            continue
        for _, k, _pair in node.world_edges:
            if k in alive:
                frontier.append(k)
        for m in node.side_moves:
            live = [k for k in m.reply_keys() if k in alive]
            if not live and m.replies:
                tainted = tainted or "reply set exhausted under taint"
            frontier.extend(live)

    if tainted:
        return Unknown(tainted)
    pairs = tuple((game.nodes[k].a, game.nodes[k].b) for k in sorted(witness_keys))
    return Bisimilar(RelationWitness(pairs, (a, b), "early-applied", cfg))


def validate_witness(
    witness: RelationWitness, th: Theory, cfg: Optional[CheckConfig] = None,
    _processes: Optional[int] = None,
) -> bool:
    """Re-verify a Bisimilar verdict: every pair is statically equivalent and
    every representative world move and transition stays inside the witness.

    Each pair is checked on its own against the witness's keys, so the pairs
    are shared out over one process per usable CPU, forked workers beside
    this one (_forked_all); the result, or the exception, is the one-process
    one.  `_processes` forces the number of processes, whatever the CPUs and
    the witness size (for tests)."""
    cfg = cfg or witness.config
    if witness.mode == "late-pi":
        return _validate_pi_witness(witness, th, cfg)
    gen = NameGen()
    for a, b in witness.pairs:
        gen.reserve(_all_names(a) | _all_names(b))
    pair_keys = [canonical_key(a, b) for a, b in witness.pairs]
    keys = frozenset(pair_keys)
    if canonical_key(*witness.root) not in keys:
        return False
    game = _EarlyGame(th, cfg, gen)

    def valid(block) -> bool:
        for (a, b), key in block:
            # children are only keyed, never explored: one-level validation
            node = _Node(a, b, key, cfg.max_depth - 1)
            game.nodes[node.key] = node
            try:
                game._expand(node)
            except ReplicationUnbounded:
                return False
            if isinstance(node.static, StaticDistinguished):
                return False
            for _, k, _pair in node.world_edges:
                if k not in keys:
                    return False
            for m in node.side_moves:
                if not any(k in keys for k in m.reply_keys()):
                    return False
            # reset children created during expansion so each pair is
            # checked against the witness alone
            game.nodes = {node.key: node}
        return True

    jobs = list(zip(witness.pairs, pair_keys))
    return _forked_all(valid, jobs, _processes or _usable_cpus(len(jobs)))


# Below this many pairs a witness is validated in one process.  Forking and
# reaping a worker took 3-4 ms at 50 MB resident and 12 ms at 220 MB on a
# 2-CPU machine, and a corpus pair took 0.3-1.4 ms to validate, so halving n
# pairs saves at least 0.15 n ms: more than the fork from about 80 pairs.
_FORK_MIN_PAIRS = 100

# Blocks of pairs per process.  The pairs' cost is uneven along the witness
# (the first half of the hash-and-sign pairs takes twice as long as the
# second), so each process takes every p-th of many small blocks rather
# than one contiguous share.
_BLOCKS_PER_PROCESS = 16


def _usable_cpus(pairs: int) -> int:
    if pairs < _FORK_MIN_PAIRS:
        return 1
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else (os.cpu_count() or 1)


def _forked_all(check, jobs: list, processes: int) -> bool:
    """`check(jobs)` for a `check` that tests its jobs one by one and
    returns False at the first that fails, computed over `processes`
    processes.  The jobs are cut into contiguous blocks; block j goes to
    process j mod `processes`, this one being process 0 and each other one
    a forked worker.  Every process checks its blocks in order and stops at
    the first that fails; a worker reports one byte per block over a pipe.
    Results are combined in block order, so a False or an exception of an
    earlier block wins; a block without a result (its worker raised, died or
    could not be forked) is checked again here, which raises its exception.
    Every worker is killed and reaped before this returns.  Without
    `os.fork`, or while another thread runs, it is `check(jobs)`."""
    if processes <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return check(jobs)
    size = max(1, -(-len(jobs) // (processes * _BLOCKS_PER_PROCESS)))
    blocks = [jobs[i:i + size] for i in range(0, len(jobs), size)]
    workers = []                # (pid, read end, block indices); pid None: not forked
    try:
        for p in range(1, processes):
            workers.append(_fork(check, blocks, range(p, len(blocks), processes)))
        results: dict[int, bool] = {}
        failure = None
        for j in range(0, len(blocks), processes):
            try:
                results[j] = check(blocks[j])
            except Exception as exc:        # raised when its turn comes
                failure = (j, exc)
                break
            if not results[j]:
                break
        for _, fd, indices in workers:
            reports = _read_to_end(fd) if fd is not None else b""
            results.update(zip(indices, (r == ord("1") for r in reports)))
        for j, block in enumerate(blocks):
            if failure is not None and failure[0] == j:
                raise failure[1]
            if not (results[j] if j in results else check(block)):
                return False
        return True
    finally:
        for pid, fd, _ in workers:
            if pid is not None:
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork(check, blocks: list, indices: range):
    """Start a worker that checks `blocks[j]` for j in `indices`, in order,
    writes b"1" or b"0" for each and stops after the first b"0"; it leaves
    with os._exit, running no exit handler of this process."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None, None, indices
    if pid == 0:
        code = 1
        try:
            os.close(r)
            for j in indices:
                ok = check(blocks[j])
                os.write(w, b"1" if ok else b"0")
                if not ok:
                    break
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r, indices


def _read_to_end(fd: int) -> bytes:
    out = []
    while chunk := os.read(fd, 4096):
        out.append(chunk)
    return b"".join(out)


def _validate_pi_witness(witness: RelationWitness, th: Theory,
                         cfg: CheckConfig) -> bool:
    if not witness.pi_pairs:
        return False
    gen = NameGen()
    from .syntax import New
    for h, p, q in witness.pi_pairs:
        gen.reserve(free_vars(p) | free_vars(q) | bound_names(p) | bound_names(q)
                    | h.names())
    keys = frozenset(_pi_key(h, p, q) for h, p, q in witness.pi_pairs)

    def unpromote(ep: ExtendedProcess) -> Process:
        body = ep.body
        for x in reversed(ep.privates):
            body = New(x, body)
        return body

    rp, rq = unpromote(witness.root[0]), unpromote(witness.root[1])
    rh = History.inputs_for(*sorted(free_vars(rp) | free_vars(rq)))
    if _pi_key(rh, rp, rq) not in keys:
        return False
    game = _PiGame(th, cfg, gen)
    for h, p, q in witness.pi_pairs:
        node = _PiNode(h, p, q, _pi_key(h, p, q), cfg.max_depth - 1)
        game.nodes[node.key] = node
        game._expand(node)
        for _, k, _minted in node.world_edges:
            if k not in keys:
                return False
        for m in node.side_moves:
            if not any(k in keys for k in m.reply_keys()):
                return False
        game.nodes = {node.key: node}
    return True


# ---------------------------------------------------------------------------
# Pi-fragment open bisimulation (late, history-indexed)


@dataclass
class _PiNode:
    h: History
    p: Process
    q: Process
    key: str
    depth: int
    world_edges: list = field(default_factory=list)
    side_moves: list = field(default_factory=list)
    frontier: bool = False


def _pi_key(h: History, p: Process, q: Process) -> str:
    mapping: dict[str, str] = {}
    parts = []
    for kind, t in h.events:
        name = t.name  # pi fragment: variables
        if "#" in name:
            mapping.setdefault(name, f"%h{len(mapping)}")
        parts.append(f"{mapping.get(name, name)}^{kind}")
    return "|".join(parts) + " : " + canonical_render(p, dict(mapping)) + " ~ " + \
        canonical_render(q, dict(mapping))


class _PiGame:
    def __init__(self, th: Theory, cfg: CheckConfig, gen: NameGen):
        self.th = th
        self.cfg = cfg
        self.gen = gen
        self.nodes: dict[str, _PiNode] = {}

    def child(self, h: History, p: Process, q: Process, depth: int) -> str:
        key = _pi_key(h, p, q)
        node = self.nodes.get(key)
        if node is None:
            node = _PiNode(h, p, q, key, depth)
            self.nodes[key] = node
            if depth >= self.cfg.max_depth:
                node.frontier = True
            else:
                self._expand(node)
        return key

    def _world_moves(self, node: _PiNode):
        moves = {}
        guards = list(guard_pairs(node.p)) + list(guard_pairs(node.q))
        for kind, s, t in guards:
            if not (isinstance(s, Var) and isinstance(t, Var)) or s == t:
                continue
            for cand in (Substitution.of({s.name: t}), Substitution.of({t.name: s})):
                if respects(cand, node.h):
                    moves.setdefault(str(cand), ("subst", cand))
        neq_vars: dict[str, tuple[Term, Term]] = {}
        for kind, s, t in guards:
            if kind == "!=":
                for v in term_free_vars(s) | term_free_vars(t):
                    neq_vars.setdefault(v, (s, t))
        bound = set()
        for pr in (node.p, node.q):
            bound |= bound_names(pr)
        extruded = set(node.h.outputs())
        for v in sorted(set(neq_vars) - bound - extruded):
            moves.setdefault(f"fresh:{v}", ("fresh", (v, neq_vars[v])))
        return list(moves.values())

    def _expand(self, node: _PiNode) -> None:
        gen = self.gen
        for kind, data in self._world_moves(node):
            if kind == "subst":
                sub = data
                h2 = History(tuple(
                    (k, sub(t)) for k, t in node.h.events
                ))
                p2, q2 = substitute(node.p, sub), substitute(node.q, sub)
                key = self.child(h2, p2, q2, node.depth + 1)
                mv = WorldMove("subst", sub)
                minted = (h2, p2, q2)
            else:
                # fresh-output clause: P{z -> x} related at h.x^o (h unchanged)
                v, guard = data
                x = gen.fresh("f")
                sub = Substitution.of({v: Var(x)})
                h2 = node.h.output(x)
                p2, q2 = substitute(node.p, sub), substitute(node.q, sub)
                key = self.child(h2, p2, q2, node.depth + 1)
                mv = WorldMove("fresh", sub, guard=guard, private=x)
                minted = (h2, p2, q2)
            if key != node.key:
                node.world_edges.append((mv, key, minted))

        steps_p = late_transitions(node.h, node.p, self.th, gen)
        steps_q = late_transitions(node.h, node.q, self.th, gen)
        for side, mine, theirs in ((0, steps_p, steps_q), (1, steps_q, steps_p)):
            for t in mine:
                replies = []
                h2 = self._extend_history(node.h, t)
                for r in theirs:
                    if r.kind != t.kind or r.channel != t.channel:
                        continue
                    if t.kind == "free-out" and r.payload != t.payload:
                        continue
                    r_target = r.target
                    if t.binder is not None:
                        r_target = substitute(
                            r.target, Substitution.of({r.binder: Var(t.binder)})
                        )
                    pair = (t.target, r_target) if side == 0 else (r_target, t.target)
                    replies.append(
                        (self.child(h2, *pair, node.depth + 1), (h2,) + pair)
                    )
                label_data = (t.kind, t.channel, t.payload, t.binder)
                node.side_moves.append(_SideMove(
                    side, t.rendered(), label_data, replies, True,
                ))

    @staticmethod
    def _extend_history(h: History, t) -> History:
        if t.kind == "bound-out":
            return h.output(t.binder)
        if t.kind == "late-in":
            return h.input(Var(t.binder))
        return h

    def solve(self) -> dict[str, tuple[int, object]]:
        killed: dict[str, tuple[int, object]] = {}
        stratum = 0
        changed = True
        while changed:
            changed = False
            stratum += 1
            new_kills = {}
            for key, node in self.nodes.items():
                if key in killed or node.frontier:
                    continue
                cert = None
                for mv, k, _minted in node.world_edges:
                    if k in killed:
                        cert = ("refine", mv, k)
                        break
                if cert is None:
                    for m in node.side_moves:
                        dead = [k for k in m.reply_keys() if k in killed]
                        if len(dead) == len(m.replies):
                            cert = ("move", m)
                            if not m.replies:
                                break
                if cert is not None:
                    new_kills[key] = (stratum, cert)
            if new_kills:
                killed.update(new_kills)
                changed = True
        return killed


def _build_pi_strategy(game: _PiGame, killed, h, p, q) -> Strategy:
    """Replay from concrete states so names stay coherent (see the early
    variant)."""
    key = _pi_key(h, p, q)
    stratum, cert = killed[key]
    node = _PiNode(h, p, q, key, 0)
    game.nodes[key] = node
    game._expand(node)
    if cert[0] == "refine":
        _, mv, child_key = cert
        for mv2, k2, minted in node.world_edges:
            if k2 == child_key:
                return RefineNode(mv2, _build_pi_strategy(game, killed, *minted))
        raise AssertionError("replayed pi node lost its refine edge")
    _, m = cert
    want = (m.side, m.label_data[0], frozenset(m.reply_keys()))
    for m2 in node.side_moves:
        if (m2.side, m2.label_data[0], frozenset(m2.reply_keys())) != want:
            continue
        if not all(k in killed for k in m2.reply_keys()):
            continue
        if not m2.replies:
            return CapabilityLeaf(m2.side, m2.label, m2.label_data,
                                  node=(h, p, q))
        children = tuple(
            _build_pi_strategy(game, killed, *minted) for _, minted in m2.replies
        )
        return MoveNode(m2.side, m2.label, m2.label_data, children)
    raise AssertionError("replayed pi node lost its killing move")


def open_bisim_pi_check(
    p: Process, q: Process, th: Theory, cfg: CheckConfig = CheckConfig()
) -> Verdict:
    """History-indexed open bisimilarity for the finite pi fragment."""
    from .syntax import is_pi_fragment
    if not (is_pi_fragment(p) and is_pi_fragment(q)):
        raise NotPiFragment("open_bisim_pi_check covers the pi fragment only")
    if has_replication(p) or has_replication(q):
        raise NotPiFragment("open_bisim_pi_check requires replication-free input")
    gen = NameGen()
    gen.reserve(free_vars(p) | free_vars(q) | bound_names(p) | bound_names(q))
    fv = sorted(free_vars(p) | free_vars(q))
    h = History.inputs_for(*fv)
    game = _PiGame(th, cfg, gen)
    root_key = game.child(h, p, q, 0)
    killed = game.solve()
    if root_key in killed:
        return DistinguishedVerdict(_build_pi_strategy(game, killed, h, p, q))
    frontier = any(n.frontier for n in game.nodes.values())
    if frontier:
        return Unknown("depth bound reached")
    # the witness is the alive closure of the root, in exploration order
    kept, todo = {root_key}, [root_key]
    while todo:
        node = game.nodes[todo.pop()]
        reached = [k for _, k, _minted in node.world_edges]
        for m in node.side_moves:
            reached.extend(m.reply_keys())
        for k in reached:
            if k not in killed and k not in kept:
                kept.add(k)
                todo.append(k)
    nodes = [n for n in game.nodes.values() if n.key in kept]
    pairs = tuple((promote(n.p), promote(n.q)) for n in nodes)
    pi_pairs = tuple((n.h, n.p, n.q) for n in nodes)
    root_pair = (promote(p), promote(q))
    return Bisimilar(RelationWitness(pairs, root_pair, "late-pi", cfg, pi_pairs))
