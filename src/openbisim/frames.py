"""Frame deduction, recipe enumeration, and static equivalence checking.

A frame is the static part of an extended process: private names plus an
idempotent active substitution mapping exported variables to messages.  A
recipe is an attacker term over the frame's domain, public variables, and
theory symbols; two frames are statically equivalent when no recipe pair is
equal under one frame and unequal under the other.

The decision route for saturation-complete theories (the bundled ones) is
frame saturation: close the attacker's knowledge under destructor rule
applications whose side arguments are themselves deducible, then compare the
equalities induced by saturated entries and small reconstructions.  Other
theories fall back to bounded recipe-pair search and answer UnknownAtDepth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .terms import (
    App, Substitution, Term, Theory, Var, apply_map, eq_mod, free_vars,
    match_term, normalize, normalize_root, render_term, term_size,
)

__all__ = [
    "Frame", "Verdict", "Equivalent", "Distinguished", "UnknownAtDepth",
    "enumerate_recipes", "recipe_images", "static_equiv", "deducible",
    "saturate",
]

FRESH_PUBLIC = "?pub"


@dataclass(frozen=True, repr=False)
class Frame:
    """Private names plus an idempotent binding with recorded domain order."""

    privates: frozenset[str]
    binding: Substitution
    order: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.order:
            object.__setattr__(self, "order", tuple(sorted(self.binding.domain)))
        if not self.binding.is_idempotent():
            raise ValueError("frame binding must be idempotent")
        if self.privates & self.binding.domain:
            raise ValueError("frame domain must be disjoint from private names")

    @property
    def domain(self) -> frozenset[str]:
        return self.binding.domain

    def publics(self) -> frozenset[str]:
        """Free variables visible to the attacker: range variables that are
        not private."""
        out: set[str] = set()
        for _, t in self.binding.bindings:
            out |= free_vars(t)
        return frozenset(out - self.privates)

    def image(self, recipe: Term, th: Theory) -> Term:
        return normalize(self.binding(recipe), th)

    def __repr__(self):
        nu = ",".join(sorted(self.privates))
        binds = ", ".join(f"{x} = {render_term(self.binding.get(x))}" for x in self.order)
        return f"new {nu}.{{{binds}}}"


@dataclass(frozen=True)
class Equivalent:
    pass


@dataclass(frozen=True)
class Distinguished:
    left_recipe: Term
    right_recipe: Term
    equal_on: str  # "a" or "b": the side where the recipe pair coincides


@dataclass(frozen=True)
class UnknownAtDepth:
    depth: int


Verdict = Equivalent | Distinguished | UnknownAtDepth


# ---------------------------------------------------------------------------
# Saturation


_ALTERNATES = 4


def saturate(frame: Frame, th: Theory, extra_publics: frozenset[str] = frozenset()) -> dict[Term, list[Term]]:
    """Map from deduced message (normal form) to its known recipes, smallest
    first (capped).  Contains the frame entries, public atoms, and everything
    reachable by rule applications whose remaining arguments are deducible.
    """
    known: dict[Term, list[Term]] = {}

    def add(value: Term, recipe: Term) -> bool:
        recipes = known.setdefault(value, [])
        if recipe in recipes or len(recipes) >= _ALTERNATES:
            return False
        recipes.append(recipe)
        recipes.sort(key=_recipe_key)
        return len(recipes) == 1

    for x in frame.order:
        add(frame.image(Var(x), th), Var(x))
    for v in sorted(frame.publics() | extra_publics):
        add(Var(v), Var(v))
    for fn, arity in th.symbols():
        if arity == 0:
            add(App(fn, ()), App(fn, ()))

    changed = True
    while changed:
        changed = False
        for rule in th.rules:
            lhs, rule_vars = rule.lhs, rule.variables()
            for fills in _match_rule_args(lhs, rule_vars, known, th):
                bindings, recipes = fills
                value = normalize(apply_map(rule.rhs, bindings), th)
                recipe = App(lhs.fn, tuple(recipes))
                if add(value, recipe):
                    changed = True
    return known


def _recipe_key(r: Term):
    return (term_size(r), render_term(r))


def _match_rule_args(lhs: App, rule_vars: frozenset[str], known: dict[Term, list[Term]], th: Theory):
    """Ways to instantiate a rule's arguments with deducible material.

    Arguments are processed left to right: compound argument patterns are
    matched against known values; argument patterns that are already ground
    (under the bindings so far) need a recipe for their value; bare-variable
    argument patterns left unbound are skipped (no informative instantiation).
    """
    results: list[tuple[dict[str, Term], list[Term]]] = []
    _match_args(0, {}, [], lhs, rule_vars, known, th, results)
    return results


def _match_args(i: int, bindings: dict[str, Term], recipes: list[Term], lhs: App,
                rule_vars: frozenset[str], known: dict[Term, list[Term]],
                th: Theory, results: list) -> None:
    """_match_rule_args from argument `i` on, under the bindings so far."""
    if i == len(lhs.args):
        results.append((dict(bindings), list(recipes)))
        return
    # the pattern itself is matched and its bindings checked against the
    # earlier ones: a bound value may hold a name spelled like a rule variable
    pat = lhs.args[i]
    if free_vars(pat) & rule_vars <= bindings.keys():
        # fully determined: need a recipe for its normal form
        value = normalize(apply_map(pat, bindings), th)
        recs = known.get(value)
        if recs:
            recipes.append(recs[0])
            _match_args(i + 1, bindings, recipes, lhs, rule_vars, known, th, results)
            recipes.pop()
        return
    if isinstance(pat, Var):
        return  # unconstrained argument: nothing informative to learn
    for value, recs in list(known.items()):
        if not recs:
            continue
        rec = recs[0]
        m = match_term(pat, value, rule_vars)
        if m is None or any(bindings.get(x, v) != v for x, v in m.items()):
            continue
        recipes.append(rec)
        _match_args(i + 1, {**bindings, **m}, recipes, lhs, rule_vars, known, th, results)
        recipes.pop()


# ---------------------------------------------------------------------------
# Recipe enumeration


def _image_from_args(r: Term, images: dict[Term, Term], frame: Frame,
                     th: Theory) -> Term:
    """frame.image(r), with the images of a compound recipe's arguments
    taken from `images`."""
    if isinstance(r, App) and r.args:
        return normalize_root(App(r.fn, tuple([images[a] for a in r.args])), th)
    return frame.image(r, th)


def recipe_images(frame: Frame, recipes: Iterable[Term], th: Theory,
                  images: Optional[dict[Term, Term]] = None) -> dict[Term, Term]:
    """A map from each of `recipes` to its image under `frame`: `images`,
    a map of images known already, filled in, or a new map.  The recipes
    come in enumeration order: every argument of a compound recipe comes
    before the recipe, or is in `images`.

    Images are built bottom-up.  The image of f(r1..rn) is the normal form
    of f(img(r1)..img(rn)); its arguments are normal already, so in a
    convergent theory only its root can still be rewritten
    (`normalize_root`).  This equals frame.image(r), which normalizes the
    whole instantiated recipe again.
    """
    images = {} if images is None else images
    for r in recipes:
        if r not in images:
            images[r] = _image_from_args(r, images, frame, th)
    return images


def enumerate_recipes(
    frame: Frame,
    th: Theory,
    depth: int,
    publics: tuple[str, ...] = (),
    fresh: tuple[str, ...] = (FRESH_PUBLIC,),
    dedup: bool = True,
) -> Iterator[Term]:
    """All recipes of constructor depth <= depth over the frame domain, the
    given public variables, and the theory symbols, layer by layer (atoms,
    then each constructor depth), each layer ordered by (size, rendering).

    With `dedup`, a recipe is left out when the normal form of its image
    under the frame is that of a recipe listed before it.  Without it every
    recipe is listed, and each constructor layer after the first lists the
    layer before it again, since it applies the symbols to all earlier
    recipes.  The checker itself always enumerates without `dedup`; the
    option stays because it is the one enumeration that images recipes as
    it goes, and perfbench/selftest.py enumerates with it to see that the
    normalize calls made inside this module are traced.

    The (size, rendering) sort key of a compound recipe is built from the
    keys of its arguments, which are always listed earlier
    (_key_from_args), in a table that lives as long as the enumeration."""
    atoms: list[Term] = [Var(x) for x in frame.order]
    atoms += [Var(v) for v in publics if v not in frame.domain]
    atoms += [Var(v) for v in fresh]
    for fn, arity in th.symbols():
        if arity == 0:
            atoms.append(App(fn, ()))

    keys = {a: _recipe_key(a) for a in atoms}
    images: dict[Term, Term] = {}     # of the kept recipes, when dedup
    seen_images: set[Term] = set()
    layer: list[Term] = []
    for a in sorted(atoms, key=keys.__getitem__):
        if dedup:
            img = frame.image(a, th)
            if img in seen_images:
                continue
            seen_images.add(img)
            images[a] = img
        layer.append(a)
    yield from layer

    all_recipes = list(layer)
    for _ in range(depth):
        new_layer: list[Term] = []
        for fn, arity in th.symbols():
            if arity == 0:
                continue
            for args in itertools.product(all_recipes, repeat=arity):
                r = App(fn, tuple(args))
                if dedup:
                    img = _image_from_args(r, images, frame, th)
                    if img in seen_images:
                        continue
                    seen_images.add(img)
                    images[r] = img
                keys[r] = _key_from_args(r, keys)
                new_layer.append(r)
        new_layer.sort(key=keys.__getitem__)
        yield from new_layer
        all_recipes += new_layer
        if not new_layer:
            return


def _key_from_args(r: Term, keys: dict[Term, tuple[int, str]]) -> tuple[int, str]:
    """_recipe_key(r), with the keys of a compound recipe's arguments taken
    from `keys`."""
    if isinstance(r, App) and r.args:
        arg_keys = [keys[a] for a in r.args]
        return (1 + sum([k[0] for k in arg_keys]),
                f"{r.fn}({', '.join([k[1] for k in arg_keys])})")
    return _recipe_key(r)


def deducible(
    frame: Frame,
    target: Term,
    th: Theory,
    depth: int = 3,
    publics: tuple[str, ...] = (),
) -> Optional[Term]:
    """Smallest recipe producing `target` modulo the theory, or None.

    Saturation answers most queries; compound targets are reconstructed
    recursively from deducible parts up to the given constructor depth.
    """
    target = normalize(target, th)
    known = saturate(frame, th, frozenset(publics))
    recipe = _build(target, depth, known, frame, th)
    if recipe is not None and eq_mod(frame.binding(recipe), target, th):
        return recipe
    return None


def _build(t: Term, d: int, known: dict[Term, list[Term]], frame: Frame,
           th: Theory) -> Optional[Term]:
    """deducible's reconstruction of `t` from the saturation `known`, up to
    constructor depth `d`."""
    recs = known.get(t)
    if recs:
        return recs[0]
    if isinstance(t, Var):
        return t if t.name not in frame.privates else None
    if d <= 0:
        return None
    args = []
    for a in t.args:
        r = _build(normalize(a, th), d - 1, known, frame, th)
        if r is None:
            return None
        args.append(r)
    return App(t.fn, tuple(args))


# ---------------------------------------------------------------------------
# Static equivalence

def static_equiv(a: Frame, b: Frame, th: Theory, depth: int = 3) -> Verdict:
    """Decide static equivalence of two frames over a shared domain.

    Verdicts are memoized in the theory's ``static_equiv`` table on the
    exact frames and the recipe depth."""
    if a.domain != b.domain:
        raise ValueError("compared frames must share a domain")
    memo = th.memo["static_equiv"]
    key = (a, b, depth)
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = _static_equiv(a, b, th, depth)
    return verdict


def _test_pairs(f: Frame, th: Theory) -> Iterator[tuple[Term, Term]]:
    """Candidate recipe pairs that coincide under `f` (saturation route)."""
    known = saturate(f, th)
    # distinct recipes deriving the same message
    for value, recipes in known.items():
        for r1, r2 in itertools.combinations(recipes, 2):
            yield (r1, r2)
    # reconstruction tests: a deduced message equals a rebuild of its parts
    for value, recipes in sorted(known.items(), key=lambda kv: _recipe_key(kv[1][0])):
        recipe = recipes[0]
        rebuilt = _rebuild(value, known, th, 3, forbid=recipe)
        if rebuilt is not None and rebuilt != recipe:
            yield (recipe, rebuilt)
    # rule applications over deducible material collapsing to deducible values
    for rule in th.rules:
        lhs, rule_vars = rule.lhs, rule.variables()
        for bindings, recipes in _match_rule_args(lhs, rule_vars, known, th):
            value = normalize(apply_map(rule.rhs, bindings), th)
            recs = known.get(value)
            if recs:
                yield (App(lhs.fn, tuple(recipes)), recs[0])


def _rebuild(value: Term, known: dict[Term, list[Term]], th: Theory, d: int,
             forbid: Optional[Term] = None) -> Optional[Term]:
    if isinstance(value, Var):
        for rec in known.get(value, ()):
            if rec != forbid:
                return rec
        return None
    if d <= 0:
        return None
    args = []
    for a in value.args:
        recs = known.get(a)
        rec = recs[0] if recs else _rebuild(a, known, th, d - 1)
        if rec is None:
            return None
        args.append(rec)
    return App(value.fn, tuple(args))


def _orient(r1: Term, r2: Term) -> tuple[Term, Term]:
    k1, k2 = _recipe_key(r1), _recipe_key(r2)
    return (r1, r2) if k1 >= k2 else (r2, r1)


def _check_pair(pair: tuple[Term, Term], a: Frame, b: Frame, th: Theory) -> Optional[Distinguished]:
    r1, r2 = pair
    ea = eq_mod(a.binding(r1), a.binding(r2), th)
    eb = eq_mod(b.binding(r1), b.binding(r2), th)
    if ea == eb:
        return None
    big, small = _orient(r1, r2)
    return Distinguished(big, small, equal_on="a" if ea else "b")


def _static_equiv(a: Frame, b: Frame, th: Theory, depth: int) -> Verdict:
    candidates: set[tuple[Term, Term]] = set()
    for f in (a, b):
        for pair in _test_pairs(f, th):
            candidates.add(tuple(sorted(pair, key=_recipe_key)))  # type: ignore[arg-type]
    ordered = sorted(
        candidates,
        key=lambda p: (term_size(p[0]) + term_size(p[1]),
                       render_term(p[0]), render_term(p[1])),
    )
    for pair in ordered:
        verdict = _check_pair(pair, a, b, th)
        if verdict is not None:
            return verdict
    if th.saturation_complete:
        return Equivalent()
    # fallback: bounded recipe-pair search for theories without a decisive
    # saturation; group recipes by image so only collisions are compared
    publics = tuple(sorted(a.publics() | b.publics()))
    limit = 20_000
    recipes = list(itertools.islice(
        enumerate_recipes(a, th, depth, publics=publics, dedup=False), limit
    ))
    for frame, other in ((a, b), (b, a)):
        groups: dict[Term, list[Term]] = {}
        images = recipe_images(frame, recipes, th)
        for r in recipes:
            groups.setdefault(images[r], []).append(r)
        for img, group in groups.items():
            if len(group) < 2:
                continue
            base = min(group, key=_recipe_key)
            for r in group:
                if r is base:
                    continue
                verdict = _check_pair((base, r), a, b, th)
                if verdict is not None:
                    return verdict
    return UnknownAtDepth(depth)
