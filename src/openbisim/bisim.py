"""Quasi-open bisimulation game solver, the history-indexed open
bisimulation checker for the pi fragment, and distinguishing strategies.

One engine (_Game: explorer, solver, strategy replay, witness closure)
plays over two arenas.  The early applied-pi game works on pairs of extended
processes; the late pi game on pairs of pi processes under a history, whose
world moves identify two names the history allows to be equal or extrude a
fresh name.

At every node of the early game the attacker may (i) exhibit static
inequivalence of the two frames, (ii) refine the world by a representative
refinement (guard unifiers, fresh-private-name extensions, frame-narrowing
substitutions) applied to both sides, or (iii) play a transition that the
other side must match.  The defender wins the finite game when a closed,
validated relation is found.

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
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import frames as frames_mod
from .frames import (
    Distinguished as StaticDistinguished, Frame, _recipe_key, enumerate_recipes,
    recipe_images,
)
from .lts import (
    History, InputSchema, Label, NotPiFragment, ReplicationUnbounded,
    early_answers, early_transitions, late_answers, late_transitions,
    rename_frame_var, respects,
)
from .names import NameGen
from .syntax import (
    ExtendedProcess, New, Process, bound_names, canonical_key, canonical_render,
    free_vars, guard_pairs, guards_and_outputs, has_replication, is_pi_fragment,
    make_extended, make_successor, promote, rename_apart, substitute,
    unfold_replication,
)
from .terms import (
    App, Substitution, Term, Theory, Var, apply_map,
    free_vars as term_free_vars, match_term, render_term,
    solved_unifier, subterms, syntactic_unify, unify_mod,
)

__all__ = [
    "CheckConfig", "Verdict", "Bisimilar", "DistinguishedVerdict", "Unknown",
    "WorldMove", "Strategy", "StaticLeaf", "CapabilityLeaf", "RefineNode",
    "MoveNode", "RelationWitness", "early_root", "quasi_open_check", "open_bisim_pi_check",
    "check_bisim", "validate_witness", "representative_worlds", "pi_worlds",
]


# ---------------------------------------------------------------------------
# Configuration and verdicts


# below the root, a node created past this many nodes is a frontier
_MAX_NODES = 200_000


@dataclass(frozen=True)
class CheckConfig:
    max_depth: int = 64
    recipe_depth: int = 2
    unfold: int = 0
    mode: str = "early-applied"        # or "late-pi"

    def __post_init__(self):
        if min(self.max_depth, self.recipe_depth, self.unfold) < 0:
            raise ValueError("bounds must be non-negative")


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
    label: Label
    node: tuple = ()


@dataclass(frozen=True)
class RefineNode:
    move: WorldMove
    child: "Strategy"


@dataclass(frozen=True)
class MoveNode:
    side: int
    label: Label
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
    pats = th.memo.get("narrow_patterns")
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
        th.memo["narrow_patterns"] = pats
    return pats


def _narrowings(t: App, th: Theory) -> tuple[Substitution, ...]:
    """The unifiers of `t` with the narrowing patterns of its head,
    restricted to the variables of `t`, in pattern order.  Memoized in the
    theory's ``narrowings`` table on the term."""
    memo = th.memo["narrowings"]
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
    pats = th.memo.get("demand_patterns")
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
        th.memo["demand_patterns"] = pats
    return pats


class _StateView(NamedTuple):
    """The parts of a state that world refinements and payload candidates
    are computed from, and that the payload table's key holds."""

    privates: tuple[str, ...]
    frame: Substitution
    frame_order: tuple[str, ...]
    guards: tuple[tuple[str, Term, Term], ...]
    outputs: tuple[Term, ...]
    free: frozenset[str]            # free variables outside the frame domain

    @staticmethod
    def of(ep: ExtendedProcess) -> "_StateView":
        free = ((free_vars(ep.body) | ep.frame.range_vars())
                - ep.frame.domain - frozenset(ep.privates))
        guards, outputs = guards_and_outputs(ep.body)
        return _StateView(ep.privates, ep.frame, ep.frame_order, tuple(guards),
                          tuple(outputs), free)


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
    """The state a world move leads a normal-form state to: the move's
    substitution applied to the frame and the body, and each term it
    rebuilds normalized (make_successor)."""
    frame = Substitution.of({x: mv.sigma(t) for x, t in ep.frame.bindings})
    body = substitute(ep.body, mv.sigma, avoid=frozenset(ep.privates), th=th)
    if mv.kind == "subst":
        return make_successor(ep.privates, frame, body, th, ep.frame_order)
    # fresh extension: capture the variable as a new private name, export an
    # alias so the name remains sendable
    frame = Substitution(frame.bindings + ((mv.alias, Var(mv.private)),))
    return make_successor(ep.privates + (mv.private,), frame, body, th,
                          ep.frame_order + (mv.alias,))


# ---------------------------------------------------------------------------
# Input payload candidates


def _legal_unify(a: Term, b: Term, th: Theory) -> bool:
    """The two terms unify while binding only rule/narrowing variables
    (spelled with '?').  Process variables are rigid here: world moves that
    refine them regenerate the candidate set at the refined node, so only
    exact shapes are relevant at the current one.  Memoized in the theory's
    ``legal_unify`` table on the term pair: sibling nodes of one game test
    the same images against the same guards."""
    memo = th.memo["legal_unify"]
    got = memo.get((a, b))
    if got is None:
        got = memo[(a, b)] = _legal_unify_raw(a, b)
    return got


def _legal_unify_raw(a: Term, b: Term) -> bool:
    """_legal_unify without its memo.  Decided on the unifier's triangular
    solved form, without resolving it into a Substitution: every rigid
    variable must resolve to a '?' variable.  This is weaker than a
    reorientable renaming: two different rigid variables may both resolve
    to one '?' variable, so aenc(pair(?z, pk(c)), pk(a)) unifies legally
    with aenc(pair(?0, pk(a)), pk(?1)) by identifying a and c through ?1."""
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


def _may_unify(a: Term, b: Term) -> bool:
    """Whether a and b can still unify legally (_legal_unify_raw) as far as
    one pair of arguments shows: a '?' variable meets anything, a variable
    any variable (two rigid ones may meet through a '?' variable), a rigid
    variable no application, and two applications need one head and arity
    and arguments that may unify.  Never False when a pair of arguments of
    a legally unifiable pair of applications is tested."""
    if type(a) is Var:
        return type(b) is Var or a.name.startswith("?")
    if type(b) is Var:
        return b.name.startswith("?")
    return (a.fn == b.fn and len(a.args) == len(b.args)
            and all(map(_may_unify, a.args, b.args)))


def _frame_images(frame: Frame, th: Theory, key: tuple,
                  recipes: Iterable[Term]) -> dict[Term, Term]:
    """The theory's ``recipe_images`` entry of a frame under one recipe
    domain `key` (publics, fresh variable and recipe depth): a map from
    recipe to image, filled here with `recipes`, which come in enumeration
    order (frames.recipe_images)."""
    return recipe_images(frame, recipes, th, th.memo["recipe_images"].setdefault(
        (frame.privates, frame.binding.bindings, frame.order) + key, {}))


def _top_recipes(lower: tuple[Term, ...], images: dict[Term, Term],
                 by_head: dict[tuple[str, int], list[Term]],
                 th: Theory) -> set[Term]:
    """The recipes f(r1..rn) over `lower` whose image under the frame of
    `images` may interact with a target: those whose arguments' images may
    unify one by one with a target of head f/n (their image is f applied
    to those images unless a rule rewrites it at its root), and those at
    whose root a rule's left side matches (whatever they rewrite to)."""
    by_image: dict[Term, list[Term]] = {}
    for r in lower:
        by_image.setdefault(images[r], []).append(r)
    out: set[Term] = set()
    for group in by_head.values():
        for g in group:
            columns = [[r for img, rs in by_image.items() if _may_unify(img, arg)
                        for r in rs] for arg in g.args]
            out.update(App(g.fn, args) for args in itertools.product(*columns))

    def fill(lhs: App, rule_vars: frozenset[str], bindings: dict[str, Term],
             columns: list[list[Term]]) -> None:
        # match lhs.args left to right against the images, as at the root
        # of normalize_root, carrying the bindings
        if len(columns) == len(lhs.args):
            out.update(App(lhs.fn, args) for args in itertools.product(*columns))
            return
        pat = lhs.args[len(columns)]
        if term_free_vars(pat) & rule_vars <= bindings.keys():
            rs = by_image.get(apply_map(pat, bindings))
            if rs:
                fill(lhs, rule_vars, bindings, columns + [rs])
            return
        for img, rs in by_image.items():
            m = match_term(pat, img, rule_vars)
            if m is not None and all(bindings.get(x, v) == v for x, v in m.items()):
                fill(lhs, rule_vars, {**bindings, **m}, columns + [rs])

    for rule in th.rules:
        fill(rule.lhs, rule.variables(), {}, [])
    return out


def _payload_candidates(
    a: ExtendedProcess,
    b: ExtendedProcess,
    th: Theory,
    cfg: CheckConfig,
    gen_fresh_name: str,
) -> list[Term]:
    """Candidate input payload recipes at a node, relevance-filtered.

    Memoized in the theory's ``payload_cache`` table on both sides'
    _StateView, which holds every part of the node that
    _payload_candidates_raw reads, and on the recipe depth.  The cached
    list holds the placeholder ?z for the fresh-variable candidate, which
    is replaced by `gen_fresh_name` per call.
    """
    memo = th.memo["payload_cache"]
    va, vb = _StateView.of(a), _StateView.of(b)
    key = (va, vb, cfg.recipe_depth)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _payload_candidates_raw(va, vb, th, cfg, "?z")
    fresh = {"?z": Var(gen_fresh_name)}
    return [apply_map(r, fresh) for r in hit]


def _publics(a: _StateView, b: _StateView) -> tuple[str, ...]:
    """Free names of both states outside the frame domains, sorted."""
    return tuple(sorted((a.free | b.free) - a.frame.domain - b.frame.domain))


def _interaction(
    a: _StateView, b: _StateView, th: Theory,
) -> tuple[dict[tuple[str, int], list[Term]], Callable[[Term], bool]]:
    """The interaction targets of a node, grouped by head symbol and arity,
    and a test whether an image can interact with one of them: whether it
    legally unifies with a reachable guard's subterm, a solved guard
    pattern, or a term demanded by a future output feeding a rewrite
    rule."""
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

    return by_head, interacts


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
    a rewrite rule).  The recipes below the top constructor layer are
    enumerated in full (the theory's ``recipes`` table); the top layer is
    built from the targets and the rules' left sides (_top_recipes)."""
    publics = _publics(a, b)
    frame_a = Frame(frozenset(a.privates), a.frame, a.frame_order)
    frame_b = Frame(frozenset(b.privates), b.frame, b.frame_order)

    by_head, interacts = _interaction(a, b, th)

    # A recipe is kept when no kept recipe before it has its pair of images
    # and, unless it is a variable, one of its images can interact; the
    # fresh variable comes first.  Below the top constructor layer every
    # recipe is tried, in enumeration order; of the top layer only those
    # that may interact on some side (_top_recipes), in (size, rendering)
    # order.  A top-layer recipe that interacts on neither side would not
    # be kept, so leaving it out changes nothing.
    fresh = Var(gen_fresh_name)
    seen: set[tuple[Term, Term]] = {(frame_a.image(fresh, th),
                                     frame_b.image(fresh, th))}
    depth = cfg.recipe_depth
    recipes_cache = th.memo["recipes"]
    lower_key = (frame_a.order, publics, gen_fresh_name, max(depth - 1, 0))
    lower = recipes_cache.get(lower_key)
    if lower is None:
        lower = recipes_cache[lower_key] = tuple(enumerate_recipes(
            frame_a, th, lower_key[3], publics=publics, fresh=(gen_fresh_name,),
            dedup=False))
    domain = (publics, gen_fresh_name, depth)
    images_a = _frame_images(frame_a, th, domain, lower)
    images_b = _frame_images(frame_b, th, domain, lower)
    top: list[Term] = []
    if depth > 0:
        top = sorted(_top_recipes(lower, images_a, by_head, th)
                     | _top_recipes(lower, images_b, by_head, th), key=_recipe_key)
        _frame_images(frame_a, th, domain, top)
        _frame_images(frame_b, th, domain, top)
    kept: list[Term] = []
    for r in itertools.chain(lower, top):
        ia, ib = images_a[r], images_b[r]
        key = (ia, ib)
        if key in seen:
            continue
        if isinstance(r, Var) or interacts(ia) or interacts(ib):
            seen.add(key)
            kept.append(r)
    kept.sort(key=_recipe_key)
    return [fresh] + kept


# ---------------------------------------------------------------------------
# The game engine: one explorer, solver, strategy replay and closure walk for
# two arenas, the early applied-pi game (frames) and the late pi game
# (histories)


@dataclass(slots=True)
class _SideMove:
    """What the solver reads of a move: who moves, the kind of its label and
    the keys of the replier's successors."""

    side: int
    kind: str                    # the label's kind
    replies: tuple[str, ...]     # the replies' child keys
    reply_complete: bool         # False if the replier's set may be incomplete


@dataclass(slots=True)
class _Replay:
    """What the strategy replay reads beyond a node's edges, in the order
    of its lists: the world move and successor state of each world edge,
    and the label and reply successor states of each side move."""

    worlds: list = field(default_factory=list)     # (WorldMove, state)
    moves: list = field(default_factory=list)      # (Label, [state, ...])


class _Game:
    """The mode-independent part of the game.  Nodes are created on first
    sight under the depth and node bounds (`_child`), the greatest fixpoint
    is computed by stratified removal (`solve`), and a surviving root is
    justified by its alive closure (`_closure`); `_build_strategy` replays a
    killed node.  An arena supplies its node type (`_node_type`, built from
    the state, the key and the depth), its key (`_key`), `_expand` (the
    static check, world edges and side moves of a node) and
    `_LAST_DEAD_MOVE`.

    An explored node keeps its state, its static verdict and taint, the
    child key of each world edge and, of each side move, the mover's side,
    the label's kind, the replies' child keys and their completeness: all
    that `solve`, `_closure` and `validate_witness` read.  Each child key is
    the stored node's own string.  The world moves, labels and successor
    states behind the edges are kept only by the replay (`_Replay`).

    With a `relation` (the canonical keys of a witness's pairs, for an arena
    that supplies `_pair_key`, a node's canonical pair key) a child whose
    pair is outside it is not explored and counts as killed: the game is
    then the witness's own, and the witness holds when the root survives it
    and no node is a frontier."""

    # Among several complete moves whose replies are all killed, the first
    # (False) or the last (True) certifies the kill; a move without replies
    # always wins at once.  The choice fixes the strategy: the pi arena's
    # om-outin strategy and formulas come from the last.
    _LAST_DEAD_MOVE = False

    def __init__(self, th: Theory, cfg: CheckConfig, gen: NameGen,
                 relation: Optional[frozenset[str]] = None):
        self.th = th
        self.cfg = cfg
        self.gen = gen
        self.nodes: dict[str, object] = {}
        self.relation = relation
        self.outside: set[str] = set()

    def node_for(self, *state_depth):
        """The root node of a state (every argument but the last, the
        depth), created and expanded if new, whatever the bounds."""
        return self.nodes[self._child(*state_depth, root=True)]

    def _child(self, *state_depth, root: bool = False) -> str:
        """The key of a state's node (the arguments as for node_for),
        created and expanded if new: the stored node's own string, so every
        edge to a node shares one copy.  A node other than a root at the
        depth bound or past the node bound is a frontier: never expanded,
        never killed."""
        state, depth = state_depth[:-1], state_depth[-1]
        key = self._key(*state)
        node = self.nodes.get(key)
        if node is None:
            node = self._node_type(*state, key, depth)
            self.nodes[key] = node
            if self.relation is not None and self._pair_key(node) not in self.relation:
                self.outside.add(key)
            elif not root and (depth >= self.cfg.max_depth
                               or len(self.nodes) > _MAX_NODES):
                node.frontier = True
            else:
                self._expand(node)
        return node.key

    def _world_edge(self, node, mv: WorldMove, successor: tuple,
                    replay: Optional[_Replay]) -> None:
        """Add to `node` the edge of world move `mv` to the `successor`
        state (the arguments of `_key`), unless it leads back to the node."""
        key = self._child(*successor, node.depth + 1)
        if key != node.key:
            node.world_edges.append(key)
            if replay is not None:
                replay.worlds.append((mv, successor))

    def _side_move(self, node, side: int, label: Label, keys: tuple[str, ...],
                   successors: list, reply_complete: bool,
                   replay: Optional[_Replay]) -> None:
        """Add to `node` the move of `side` labelled `label`, whose replies
        lead to the `successors` states, of child keys `keys`."""
        node.side_moves.append(_SideMove(side, label.kind, keys, reply_complete))
        if replay is not None:
            replay.moves.append((label, successors))

    def solve(self) -> dict[str, tuple[int, object]]:
        """Greatest fixpoint by iterated removal: stratum 0 holds the nodes
        outside the relation and the statically distinguished ones, each
        later stratum the nodes with a killing move into earlier ones.
        Returns the killed nodes' (stratum, certificate) by key."""
        killed: dict[str, tuple[int, object]] = dict.fromkeys(self.outside, (0, ("outside",)))
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
                if key in killed or node.frontier:
                    continue
                cert = self._kill_reason(node, killed)
                if cert is not None:
                    new_kills[key] = (stratum, cert)
            if new_kills:
                killed.update(new_kills)
                changed = True
        return killed

    def _kill_reason(self, node, killed) -> Optional[object]:
        for key in node.world_edges:
            if key in killed:
                return ("refine", key)
        best = None
        for m in node.side_moves:
            if not m.reply_complete:
                continue
            if all(k in killed for k in m.replies):
                cand = ("move", m)
                if not m.replies:
                    return cand  # capability with no reply: immediate
                if best is None or self._LAST_DEAD_MOVE:
                    best = cand
        return best

    def _closure(self, root_key: str, killed) -> tuple[set[str], Optional[str]]:
        """The alive nodes the root's survival rests on (the root and, from
        each that is not a frontier, every alive child), and the first taint
        met on the way: a node's own, a frontier, or a move whose replies
        are all killed."""
        kept: set[str] = set()
        todo = [root_key]
        taint: Optional[str] = None
        while todo:
            key = todo.pop()
            if key in kept:
                continue
            kept.add(key)
            node = self.nodes[key]
            taint = taint or node.taint
            if node.frontier:
                taint = taint or "depth bound reached"
                continue
            for k in node.world_edges:
                if k not in killed:
                    todo.append(k)
            for m in node.side_moves:
                live = [k for k in m.replies if k not in killed]
                if not live and m.replies:
                    taint = taint or "reply set exhausted under taint"
                todo.extend(live)
        return kept, taint


def _build_strategy(game: _Game, killed, *state) -> Strategy:
    """Rebuild the distinguishing strategy of a killed state by replaying
    from concrete states so generated names stay coherent along the path
    (memoized nodes may have been stored under a different session
    naming)."""
    key = game._key(*state)
    stratum, cert = killed[key]
    node = game._node_type(*state, key, 0)
    game.nodes[key] = node
    replay = _Replay()
    game._expand(node, replay)
    if cert[0] == "static":
        st = node.static
        assert isinstance(st, StaticDistinguished)
        return StaticLeaf(st.left_recipe, st.right_recipe, st.equal_on, node=state)
    if cert[0] == "refine":
        _, child_key = cert
        for k2, (mv, successor) in zip(node.world_edges, replay.worlds):
            if k2 == child_key:
                return RefineNode(mv, _build_strategy(game, killed, *successor))
        raise AssertionError("replayed node lost its refine edge")
    _, m = cert
    want = (m.side, m.kind, frozenset(m.replies))
    for m2, (label, successors) in zip(node.side_moves, replay.moves):
        if (m2.side, m2.kind, frozenset(m2.replies)) != want:
            continue
        if not all(k in killed for k in m2.replies):
            continue
        if not m2.replies:
            return CapabilityLeaf(m2.side, label, node=state)
        children = tuple(
            _build_strategy(game, killed, *successor) for successor in successors
        )
        return MoveNode(m2.side, label, children)
    raise AssertionError("replayed node lost its killing move")


def _build_pi_strategy(game: "_PiGame", killed, h, p, q) -> Strategy:
    """_build_strategy at a late pi state."""
    return _build_strategy(game, killed, h, p, q)


# ---------------------------------------------------------------------------
# The early applied-pi arena


@dataclass(slots=True)
class _Node:
    a: ExtendedProcess
    b: ExtendedProcess
    key: str
    depth: int
    static: object = None
    world_edges: list = field(default_factory=list)   # child keys
    side_moves: list = field(default_factory=list)    # _SideMove
    taint: Optional[str] = None
    frontier: bool = False


class _EarlyGame(_Game):
    _node_type = _Node

    def __init__(self, th: Theory, cfg: CheckConfig, gen: NameGen):
        super().__init__(th, cfg, gen)
        self._trans_cache: dict[ExtendedProcess, object] = {}

    def _key(self, a: ExtendedProcess, b: ExtendedProcess) -> str:
        return canonical_key(a, b)

    def _expand(self, node: _Node, replay: Optional[_Replay] = None) -> None:
        """Static check, world edges and side moves of a node.  Edges and
        replies hold child keys only, so an explored graph keeps no
        successor alive that is not a node of its own; a `replay` records
        the world moves, labels and successor pairs behind them."""
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
        for mv in moves:
            self._world_edge(node, mv, (apply_world_move(a, mv, th),
                                        apply_world_move(b, mv, th)), replay)

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

        def reply(pair: tuple[ExtendedProcess, ExtendedProcess]) -> str:
            ids = (id(pair[0]), id(pair[1]))
            got = child_keys.get(ids)
            if got is None:
                # the entry holds the pair, so its ids stay unique until the
                # expansion ends
                got = child_keys[ids] = (self._child(*pair, node.depth + 1), pair)
            return got[0]

        def move(side: int, label: Label, pairs: list, reply_complete: bool) -> None:
            self._side_move(node, side, label, tuple(map(reply, pairs)), pairs,
                            reply_complete, replay)

        for side, mine, theirs, their_ep in ((0, ts_a, ts_b, b), (1, ts_b, ts_a, a)):
            reply_complete = not theirs.unknown
            for t in mine.transitions:
                # a bound output is answered at the mover's frame variable
                pairs = []
                for r in early_answers(t.label, their_ep, theirs, th):
                    r_target = r.target
                    if t.label.kind == "out":
                        r_target = rename_frame_var(r.target, r.label.binder, t.label.binder)
                    pairs.append((t.target, r_target) if side == 0 else (r_target, t.target))
                move(side, t.label, pairs, reply_complete)
            for schema in mine.inputs:
                assert payloads is not None
                matching = early_answers(Label("in", schema.channel), their_ep, theirs, th)
                for payload in payloads:
                    target = instantiate(schema, payload)
                    pairs = []
                    for s2 in matching:
                        r_target = instantiate(s2, payload)
                        pairs.append((target, r_target) if side == 0 else (r_target, target))
                    move(side, Label("in", schema.channel, payload), pairs, reply_complete)

    def _transitions(self, ep: ExtendedProcess):
        ts = self._trans_cache.get(ep)
        if ts is None:
            ts = early_transitions(ep, self.th, self.gen)
            self._trans_cache[ep] = ts
        return ts


def early_root(
    p: Process | ExtendedProcess,
    q: Process | ExtendedProcess,
    th: Theory,
    cfg: CheckConfig = CheckConfig(),
) -> tuple[ExtendedProcess, ExtendedProcess]:
    """The root pair of the early game of p and q: both promoted, their
    replications unfolded cfg.unfold times, and normalized, with each
    side's private names that are free in the other side renamed apart, so
    that a private name is never taken for the other side's public one."""
    a, b = promote(p), promote(q)
    if has_replication(a.body) or has_replication(b.body):
        if cfg.unfold <= 0:
            raise ReplicationUnbounded("replication requires an unfolding bound")
        a = replace(a, body=unfold_replication(a.body, cfg.unfold))
        b = replace(b, body=unfold_replication(b.body, cfg.unfold))
    a = make_extended(a.privates, a.frame, a.body, th, a.frame_order)
    b = make_extended(b.privates, b.frame, b.body, th, b.frame_order)
    if a.frame.domain != b.frame.domain:
        raise ValueError("compared processes must export the same frame domain")
    taken = _all_names(a) | _all_names(b)
    a = rename_apart(a, b.free_variables(), taken)
    return a, rename_apart(b, a.free_variables(), taken | set(a.privates))


def quasi_open_check(
    p: Process | ExtendedProcess,
    q: Process | ExtendedProcess,
    th: Theory,
    cfg: CheckConfig = CheckConfig(),
) -> Verdict:
    """Decide quasi-open bisimilarity of two (extended) processes."""
    gen = NameGen()
    a, b = early_root(p, q, th, cfg)
    gen.reserve(_all_names(a) | _all_names(b))
    game = _EarlyGame(th, cfg, gen)
    root = game.node_for(a, b, 0)
    killed = game.solve()

    if root.key in killed:
        return DistinguishedVerdict(_build_strategy(game, killed, a, b))

    witness_keys, tainted = game._closure(root.key, killed)
    if tainted:
        return Unknown(tainted)
    pairs = tuple((game.nodes[k].a, game.nodes[k].b) for k in sorted(witness_keys))
    return Bisimilar(RelationWitness(pairs, (a, b), "early-applied", cfg))


def validate_witness(
    witness: RelationWitness, th: Theory, cfg: Optional[CheckConfig] = None,
) -> bool:
    """Re-verify a Bisimilar verdict.  Early applied-pi: every pair is
    statically equivalent and every representative world move and
    transition stays inside the witness.  Late pi: the root survives the
    game explored from it within the witness's pairs (see _Game), and no
    node of that game is a frontier.

    Each early applied-pi pair is checked on its own against the witness's
    keys, so the pairs are shared out over one process per usable CPU,
    forked workers beside this one (_forked_all).  The workers report by
    their exit status; if any process fails, this one checks again every
    block it did not pass, so the result, or the exception, is the
    one-process one."""
    cfg = cfg or witness.config
    if witness.mode == "late-pi":
        # the pairs carry no histories: play the game from the root again,
        # within the pairs
        if any(ep.frame.bindings for ep in witness.root):
            return False
        p, q = (_unpromote(ep) for ep in witness.root)
        if not all(is_pi_fragment(x) and not has_replication(x) for x in (p, q)):
            return False
        gen, h = _pi_root(p, q)
        game = _PiGame(th, cfg, gen, frozenset(canonical_key(a, b) for a, b in witness.pairs))
        root = game.node_for(h, p, q, 0)
        return (root.key not in game.solve()
                and not any(n.frontier for n in game.nodes.values()))
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
            for k in node.world_edges:
                if k not in keys:
                    return False
            for m in node.side_moves:
                if not any(k in keys for k in m.replies):
                    return False
            # reset children created during expansion so each pair is
            # checked against the witness alone
            game.nodes = {node.key: node}
        return True

    jobs = list(zip(witness.pairs, pair_keys))
    return _forked_all(valid, jobs, _usable_cpus(len(jobs)))


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
    the first that fails; a worker reports by its exit status alone, 0 when
    all its blocks passed.  When every process passes, the answer is True.
    On any failure (a block of this process that fails or raises, a fork
    that fails, a worker that exits non-zero or is killed) the blocks this
    process did not pass are checked again here in block order, which gives
    the one-process answer, or exception, by construction.  Every worker is
    killed and reaped before this returns.  Without `os.fork`, or while
    another thread runs, it is `check(jobs)`."""
    if processes <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return check(jobs)
    size = max(1, -(-len(jobs) // (processes * _BLOCKS_PER_PROCESS)))
    blocks = [jobs[i:i + size] for i in range(0, len(jobs), size)]
    workers = []                # forked and not yet reaped
    passed = set()              # the blocks this process passed
    try:
        for p in range(1, processes):
            pid = os.fork()
            if pid == 0:
                # leave by os._exit, running no exit handler of this process
                code = 1
                try:
                    if all(check(blocks[j]) for j in range(p, len(blocks), processes)):
                        code = 0
                finally:
                    os._exit(code)
            workers.append(pid)
        for j in range(0, len(blocks), processes):
            if not check(blocks[j]):
                break
            passed.add(j)
        else:
            # reap the workers one by one; a worker whose blocks all passed
            # exits with status 0
            if all(os.waitpid(workers.pop(), 0)[1] == 0 for _ in range(len(workers))):
                return True
    except Exception:           # answered below, in block order
        pass
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return all(check(b) for j, b in enumerate(blocks) if j not in passed)


def _unpromote(ep: ExtendedProcess) -> Process:
    """The process that promote takes to `ep`, whose frame is empty."""
    body = ep.body
    for x in reversed(ep.privates):
        body = New(x, body)
    return body


# ---------------------------------------------------------------------------
# The late pi arena (open bisimulation, history-indexed)


@dataclass(slots=True)
class _PiNode:
    h: History
    p: Process
    q: Process
    key: str
    depth: int
    world_edges: list = field(default_factory=list)   # child keys
    side_moves: list = field(default_factory=list)    # _SideMove
    frontier: bool = False
    static = None       # the pi fragment has no frames to tell apart,
    taint = None        # and its world moves and transitions are complete


def pi_worlds(
    h: History,
    procs: tuple[Process, ...],
    gen: NameGen,
    extra_eqs: Iterable[tuple[Term, Term]] = (),
    extra_neq_vars: Iterable[str] = (),
) -> Iterator[tuple[WorldMove, History]]:
    """The representative world moves of the late pi fragment under history
    h, each with the history it leads to: identifying the two names of a
    guard (or of an extra equation) where h allows it, then, in name order,
    extruding a fresh name for each free name of a mismatch guard (or each
    extra name) that is neither bound nor extruded yet: P{v -> x} related
    at h.x^o.  A fresh name is minted when its move is reached, so a caller
    that explores each move before taking the next one mints in exploration
    order."""
    guards = [g for pr in procs for g in guard_pairs(pr)]
    substs: dict[str, Substitution] = {}
    for s, t in [(s, t) for _, s, t in guards] + list(extra_eqs):
        if not (isinstance(s, Var) and isinstance(t, Var)) or s == t:
            continue
        for cand in (Substitution.of({s.name: t}), Substitution.of({t.name: s})):
            if respects(cand, h):
                substs.setdefault(str(cand), cand)
    neq_vars: dict[str, Optional[tuple[Term, Term]]] = {}
    for kind, s, t in guards:
        if kind == "!=":
            for v in term_free_vars(s) | term_free_vars(t):
                neq_vars.setdefault(v, (s, t))
    for v in extra_neq_vars:
        neq_vars.setdefault(v, None)
    bound = frozenset().union(*map(bound_names, procs))
    for sub in substs.values():
        yield WorldMove("subst", sub), History(tuple((k, sub(t)) for k, t in h.events))
    for v in sorted(set(neq_vars) - bound - set(h.outputs())):
        x = gen.fresh("f")
        yield (WorldMove("fresh", Substitution.of({v: Var(x)}), guard=neq_vars[v], private=x),
               h.output(x))


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


class _PiGame(_Game):
    # the last all-dead move certifies a kill: om-outin's strategy and
    # formulas come from it (see _Game._LAST_DEAD_MOVE)
    _LAST_DEAD_MOVE = True
    _node_type = _PiNode

    def _key(self, h: History, p: Process, q: Process) -> str:
        return _pi_key(h, p, q)

    def _pair_key(self, node: _PiNode) -> str:
        return canonical_key(promote(node.p), promote(node.q))

    def _expand(self, node: _PiNode, replay: Optional[_Replay] = None) -> None:
        """World edges and side moves of a node, holding child keys; a
        `replay` records the world moves, labels and minted successors
        (history, left, right) behind them."""
        gen = self.gen
        for mv, h2 in pi_worlds(node.h, (node.p, node.q), gen):
            minted = (h2, substitute(node.p, mv.sigma), substitute(node.q, mv.sigma))
            self._world_edge(node, mv, minted, replay)

        steps_p = late_transitions(node.h, node.p, self.th, gen)
        steps_q = late_transitions(node.h, node.q, self.th, gen)
        for side, mine, theirs in ((0, steps_p, steps_q), (1, steps_q, steps_p)):
            for t in mine:
                # a bound output or late input is answered at the mover's binder
                binder = t.label.binder
                h2 = node.h.after(t.label)
                minted = []
                for r in late_answers(t.label, theirs):
                    r_target = r.target
                    if binder is not None:
                        r_target = substitute(
                            r.target, Substitution.of({r.label.binder: Var(binder)})
                        )
                    pair = (t.target, r_target) if side == 0 else (r_target, t.target)
                    minted.append((h2,) + pair)
                keys = tuple(self._child(*m, node.depth + 1) for m in minted)
                self._side_move(node, side, t.label, keys, minted, True, replay)


def _pi_root(p: Process, q: Process) -> tuple[NameGen, History]:
    """The name generator and the history a late pi game of p and q starts
    from: every name of p and q reserved, their free names as inputs."""
    gen = NameGen()
    gen.reserve(free_vars(p) | free_vars(q) | bound_names(p) | bound_names(q))
    return gen, History.inputs_for(*sorted(free_vars(p) | free_vars(q)))


def open_bisim_pi_check(
    p: Process, q: Process, th: Theory, cfg: CheckConfig = CheckConfig()
) -> Verdict:
    """History-indexed open bisimilarity for the finite pi fragment."""
    if not (is_pi_fragment(p) and is_pi_fragment(q)):
        raise NotPiFragment("open_bisim_pi_check covers the pi fragment only")
    if has_replication(p) or has_replication(q):
        raise NotPiFragment("open_bisim_pi_check requires replication-free input")
    gen, h = _pi_root(p, q)
    game = _PiGame(th, cfg, gen)
    root = game.node_for(h, p, q, 0)
    killed = game.solve()
    if root.key in killed:
        return DistinguishedVerdict(_build_pi_strategy(game, killed, h, p, q))
    if any(n.frontier for n in game.nodes.values()):
        return Unknown("depth bound reached")
    # the witness is the alive closure of the root, in exploration order
    kept, _ = game._closure(root.key, killed)
    pairs = tuple((promote(n.p), promote(n.q))
                  for n in game.nodes.values() if n.key in kept)
    return Bisimilar(RelationWitness(pairs, (promote(p), promote(q)), "late-pi", cfg))


def check_bisim(p: Process | ExtendedProcess, q: Process | ExtendedProcess,
                th: Theory, cfg: CheckConfig = CheckConfig()) -> Verdict:
    """The check of the mode of `cfg`: open_bisim_pi_check in the late-pi
    mode, quasi_open_check in the early applied-pi mode."""
    game = open_bisim_pi_check if cfg.mode == "late-pi" else quasi_open_check
    return game(p, q, th, cfg)
