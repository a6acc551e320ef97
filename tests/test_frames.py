"""Frame deduction, recipe enumeration, static equivalence."""

import itertools

import pytest

from openbisim.frames import (
    Distinguished, Equivalent, Frame, UnknownAtDepth, _key_from_args, deducible,
    enumerate_recipes, recipe_images, static_equiv,
)
from openbisim.terms import (
    App, NonTermination, RewriteRule, Substitution, Theory, Var, dy_asym,
    dy_blind, eq_mod, free_vars, parse_term, parse_theory, render_term,
    term_size,
)

TH = dy_asym()
THB = dy_blind()


def F(privates, **binds):
    return Frame(
        frozenset(privates),
        Substitution.of({k: parse_term(v) for k, v in binds.items()}),
        tuple(binds),
    )


# ---------------------------------------------------------------------------
# Independent oracle: brute-force recipe enumeration (no dedup, no saturation)


def brute_recipes(atoms, th, depth):
    """All recipe trees over `atoms` and the signature, up to `depth`."""
    level = list(atoms)
    out = list(level)
    for _ in range(depth):
        nxt = []
        for fn, arity in th.symbols():
            if arity == 0:
                continue
            for args in itertools.product(out, repeat=arity):
                nxt.append(App(fn, tuple(args)))
        # keep only depth-incrementing terms to avoid double counting
        seen = set(out)
        nxt = [t for t in dict.fromkeys(nxt) if t not in seen]
        out += nxt
        level = nxt
    return out


def test_enumerate_depth0():
    f = F(set(), u="a", v="b")
    rs = list(enumerate_recipes(f, TH, 0))
    names = {r.name for r in rs if isinstance(r, Var)}
    assert {"u", "v"} <= names
    assert any(n.startswith("?") for n in names)  # fresh public variable


def test_enumerate_depth1_contains_unary_applications():
    f = F(set(), u="a")
    rs = set(map(str, enumerate_recipes(f, TH, 1)))
    for want in ("hash(u)", "fst(u)", "snd(u)", "pk(u)"):
        assert want in rs


def test_enumerate_count_matches_brute_force():
    # dedup off: the stream enumerates exactly the brute-force recipe trees
    f = F(set(), u="a")
    atoms = [Var("u"), Var("?pub")]
    got = list(enumerate_recipes(f, TH, 1, fresh=("?pub",), dedup=False))
    want = brute_recipes(atoms, TH, 1)
    assert len(got) == len(want)
    assert set(got) == set(want)


def test_enumerate_deterministic_order():
    f = F({"m"}, u="m", v="hash(m)")
    a = list(enumerate_recipes(f, TH, 1))
    b = list(enumerate_recipes(f, TH, 1))
    assert a == b
    sizes = [term_size(r) for r in a]
    assert sizes == sorted(sizes)


# ---------------------------------------------------------------------------
# deducible


def test_deducible_first_projection():
    f = F({"m"}, w="pair(m, n)")
    assert deducible(f, Var("m"), TH) == parse_term("fst(w)")


def test_deducible_public_variable():
    f = F(set())
    assert deducible(f, Var("x"), TH) == Var("x")


def test_deducible_encrypted_secret_not_found():
    f = F({"k", "s"}, u="aenc(s, pk(k))")
    assert deducible(f, Var("s"), TH, depth=4) is None
    # oracle: exhaustive depth-4 enumeration finds no recipe either
    for r in enumerate_recipes(f, TH, 2, dedup=False):
        assert not eq_mod(f.binding(r), Var("s"), TH)


def test_deducible_key_unlocks():
    f = F({"s"}, u="aenc(s, pk(k))")  # k public here
    r = deducible(f, Var("s"), TH)
    assert r is not None
    assert eq_mod(f.binding(r), Var("s"), TH)


# ---------------------------------------------------------------------------
# static equivalence: the three section-3.1 frame pairs


def test_static_hash_pair_distinguished():
    a = F({"m", "n"}, v="m", w="n")
    b = F({"m"}, v="m", w="hash(m)")
    v = static_equiv(a, b, TH)
    assert isinstance(v, Distinguished)
    assert {str(v.left_recipe), str(v.right_recipe)} == {"hash(v)", "w"}


def test_static_undetectable_decryption_equivalent():
    a = F({"m", "k", "n"}, x1="aenc(m, pk(k))", x2="n")
    b = F({"m", "k"}, x1="aenc(m, pk(k))", x2="k")
    assert isinstance(static_equiv(a, b, TH), Equivalent)


def test_static_tagged_pair_distinguished():
    a = F({"m", "k", "n"}, x3="aenc(pair(t, m), pk(k))", x4="n")
    b = F({"m", "k"}, x3="aenc(pair(t, m), pk(k))", x4="k")
    v = static_equiv(a, b, TH)
    assert isinstance(v, Distinguished)
    assert {str(v.left_recipe), str(v.right_recipe)} == {"fst(adec(x3, x4))", "t"}


def test_static_identical_frames_equivalent():
    a = F({"m", "n"}, v="m", w="n")
    assert isinstance(static_equiv(a, a, TH), Equivalent)


def test_static_requires_shared_domain():
    a = F({"m"}, v="m")
    b = F({"m"}, w="m")
    with pytest.raises(ValueError):
        static_equiv(a, b, TH)


def test_static_symmetric_and_alpha_invariant():
    a = F({"m", "n"}, v="m", w="n")
    b = F({"m"}, v="m", w="hash(m)")
    va = static_equiv(a, b, TH)
    vb = static_equiv(b, a, TH)
    assert isinstance(va, Distinguished) and isinstance(vb, Distinguished)
    # alpha renaming of privates and reordering of restrictions is invisible
    a2 = F({"p", "q"}, v="q", w="p")
    a2 = Frame(a2.privates, Substitution.of({"v": Var("p"), "w": Var("q")}), ("v", "w"))
    assert isinstance(static_equiv(a2, b, TH), Distinguished)


def test_distinguished_self_check():
    a = F({"m", "n"}, v="m", w="n")
    b = F({"m"}, v="m", w="hash(m)")
    v = static_equiv(a, b, TH)
    l, r = v.left_recipe, v.right_recipe
    ea = eq_mod(a.binding(l), a.binding(r), TH)
    eb = eq_mod(b.binding(l), b.binding(r), TH)
    assert ea != eb


def test_distinguished_recipes_avoid_privates():
    a = F({"m", "n"}, v="m", w="n")
    b = F({"m"}, v="m", w="hash(m)")
    v = static_equiv(a, b, TH)
    for r in (v.left_recipe, v.right_recipe):
        assert not free_vars(r) & (a.privates | b.privates)


def test_static_blind_signature_frames():
    a = F({"k", "n"}, u="n", v="sign(blind(n, z), k)")
    assert isinstance(static_equiv(a, a, THB), Equivalent)


def test_static_fixed_server_final_frames_equivalent():
    a = F({"a", "b", "c", "n"}, u="pk(a)", v="pk(b)", w="pk(c)",
          t="aenc(pair(z, pair(n, pk(c))), pk(a))")
    b = F({"a", "b", "c", "m"}, u="pk(a)", v="pk(b)", w="pk(c)", t="m")
    assert isinstance(static_equiv(a, b, TH), Equivalent)


def test_static_reconstructable_ciphertext_distinguished():
    # deterministic encryption of public material is reconstructable
    a = F({"k"}, u="pk(k)", v="aenc(m, pk(k))")
    b = F({"k", "r"}, u="pk(k)", v="r")
    v = static_equiv(a, b, TH)
    assert isinstance(v, Distinguished)


def test_unknown_at_depth_for_opaque_theory():
    # a theory we refuse to saturate decisively: flag forced off
    from openbisim.terms import Theory
    th = Theory(
        name="opaque", signature=dict(TH.signature), rules=TH.rules,
        saturation_complete=False,
    )
    a = F({"m", "k", "n"}, x1="aenc(m, pk(k))", x2="n")
    b = F({"m", "k"}, x1="aenc(m, pk(k))", x2="k")
    v = static_equiv(a, b, th, depth=1)
    assert isinstance(v, (UnknownAtDepth, Equivalent)) and isinstance(v, UnknownAtDepth)


@pytest.mark.parametrize("ruled_first", [False, True])
def test_static_verdicts_are_kept_per_theory(ruled_first):
    # two theories with one name: verdicts memoized under one must not
    # answer for the other, in either order
    plain = parse_theory("sym f/1\nsym c/0\n")
    ruled = parse_theory("sym f/1\nsym c/0\nrule f(X) -> c\n")
    assert plain.name == ruled.name
    a, b = F({"a"}, w="a"), F({"a"}, w="f(a)")
    want = {id(plain): Equivalent, id(ruled): Distinguished}
    for th in ([ruled, plain] if ruled_first else [plain, ruled]):
        assert isinstance(static_equiv(a, b, th), want[id(th)])


def test_static_verdicts_do_not_depend_on_earlier_queries():
    # the recipe pair of a frame pair is the one it gets alone, whatever
    # pair was checked before it on the same theory: here a pair that
    # differs only in the names of the frame domain
    def pair(x, y):
        return (F({"k", "j"}, **{x: "k", y: "k"}), F({"k", "j"}, **{x: "k", y: "j"}))

    first, second = pair("v#1", "v#3"), pair("v#2", "v#10")
    alone = {p: static_equiv(*p, dy_asym()) for p in (first, second)}
    assert (alone[first].left_recipe, alone[first].right_recipe) == (Var("v#3"), Var("v#1"))
    for order in ((first, second), (second, first)):
        th = dy_asym()
        for p in order:
            assert static_equiv(*p, th) == alone[p], (order, p)


@pytest.mark.parametrize("m", ["m", "M"])
def test_saturation_reads_a_name_spelled_like_a_rule_variable_as_a_name(m):
    # unblind(w1, w2) gives sign(n, k) = w3 on the left only, however the
    # private name bound to the rule variable N is spelled: a name M must
    # not be read as unblind's rule variable M
    a = F({"k", m, "n"}, w1=f"sign(blind(n, {m}), k)", w2=m, w3="sign(n, k)")
    b = F({"k", m, "n", "j"}, w1=f"sign(blind(n, {m}), k)", w2=m, w3="sign(n, j)")
    assert isinstance(static_equiv(a, b, dy_blind()), Distinguished)


# ---------------------------------------------------------------------------
# Bottom-up recipe images


def test_recipe_images_equal_frame_images():
    th = dy_blind()
    frame = F({"k", "n", "m"}, v="pk(k)", w="sign(blind(m, n), k)", u="n")
    recipes = list(enumerate_recipes(frame, th, 2, dedup=False))
    ref = dy_blind()
    images = recipe_images(frame, recipes, th)
    assert images == {r: frame.image(r, ref) for r in recipes}
    assert any(
        images[r] != App(r.fn, tuple(frame.image(a, ref) for a in r.args))
        for r in recipes if isinstance(r, App) and r.args
    )   # some image was rewritten at its root (unblind)


def test_recipe_images_keep_the_rewrite_ceiling():
    looping = Theory(
        name="loop",
        signature={"f": 1, "g": 1},
        rules=(RewriteRule(parse_term("f(X)"), parse_term("g(f(X))")),),  # type: ignore[arg-type]
        rewrite_ceiling=50,
    )
    frame = F(set(), w="a")
    with pytest.raises(NonTermination):
        recipe_images(frame, [Var("w"), App("f", (Var("w"),))], looping)
    with pytest.raises(NonTermination):
        list(enumerate_recipes(frame, looping, 1))


# ---------------------------------------------------------------------------
# Recipe sort keys built bottom-up


def rendered_enumeration(frame, th, depth, publics, fresh, dedup):
    """enumerate_recipes with every recipe rendered for its sort key, and
    duplicates found by normalizing each instantiated recipe."""
    def key(r):
        return (term_size(r), render_term(r))

    atoms = [Var(x) for x in frame.order]
    atoms += [Var(v) for v in publics if v not in frame.domain]
    atoms += [Var(v) for v in fresh]
    atoms += [App(fn, ()) for fn, arity in th.symbols() if arity == 0]
    seen = set()
    layer = []
    for a in sorted(atoms, key=key):
        if dedup:
            img = frame.image(a, th)
            if img in seen:
                continue
            seen.add(img)
        layer.append(a)
    out = list(layer)
    for _ in range(depth):
        new_layer = []
        for fn, arity in th.symbols():
            if arity == 0:
                continue
            for args in itertools.product(out, repeat=arity):
                r = App(fn, args)
                if dedup:
                    img = frame.image(r, th)
                    if img in seen:
                        continue
                    seen.add(img)
                new_layer.append(r)
        new_layer.sort(key=key)
        out += new_layer
        if not new_layer:
            break
    return out


@pytest.mark.parametrize("name, frames", [
    ("server-a-vs-b", 2), ("lem-choice", 1), ("blind-forgery", 1)])
def test_recipe_keys_match_rendering(name, frames):
    # the frames the payload layer enumerated while checking the entry (the
    # ones with the fewest atoms: depth 2 grows as the square of the
    # recipes of depth 1), under the entry's theory with a nullary constant
    # added, at depth 2
    from openbisim import corpus
    from openbisim.bisim import CheckConfig, quasi_open_check
    from openbisim.syntax import parse
    from openbisim.terms import load_theory

    entry = next(e for e in corpus.ENTRIES if e.name == name)
    th = load_theory(corpus.path(entry.theory))
    quasi_open_check(parse(corpus.read(entry.left)), parse(corpus.read(entry.right)),
                     th, CheckConfig(recipe_depth=entry.recipe_depth,
                                     max_depth=entry.max_depth))
    with_constant = parse_theory(corpus.read(entry.theory) + "\nsym ok/0\n")
    uses = sorted({(len(order) + len(publics), privates, bindings, order, publics, fresh)
                   for privates, bindings, order, publics, fresh, _
                   in th.memo["recipe_images"]}, key=lambda use: (use[0], repr(use)))
    assert uses
    for _, privates, bindings, order, publics, fresh in uses[:frames]:
        frame = Frame(privates, Substitution(bindings), order)
        for dedup in (True, False):
            got = list(enumerate_recipes(frame, with_constant, 2, publics=publics,
                                         fresh=(fresh,), dedup=dedup))
            assert App("ok", ()) in got
            assert got == rendered_enumeration(frame, with_constant, 2, publics,
                                               (fresh,), dedup)
            keys = {}
            for r in got:
                keys[r] = _key_from_args(r, keys)
                assert keys[r] == (term_size(r), render_term(r))
