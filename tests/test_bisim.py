"""Game-solver tests: paper pairs, structural laws, properties, oracle."""

import pytest

from openbisim.bisim import (
    Bisimilar, CheckConfig, DistinguishedVerdict, MoveNode, RefineNode,
    RelationWitness, StaticLeaf, Unknown, open_bisim_pi_check,
    quasi_open_check, validate_witness,
)
from openbisim.logic import distinguish, formula_alpha_equiv
from openbisim.lts import NotPiFragment, ReplicationUnbounded, barbs
from openbisim.syntax import parse, parse_process, pretty, promote
from openbisim import corpus
from openbisim.terms import dy_asym, dy_blind, load_theory

TH = dy_asym()
THB = dy_blind()
CFG = CheckConfig(recipe_depth=1, max_depth=24)


def check(l, r, cfg=CFG, th=TH):
    return quasi_open_check(parse_process(l), parse_process(r), th, cfg)


def verdict(l, r, cfg=CFG, th=TH):
    return type(check(l, r, cfg, th)).__name__


# ---------------------------------------------------------------------------
# Spec examples


def test_identity_bisimilar():
    p = "new z. out(x, pair(z, y)). in(z, w). 0"
    assert verdict(p, p) == "Bisimilar"


def test_mobility_pair_distinguished():
    v = check("new z. out(x, pair(z, y)). in(z, w). 0",
              "new z. out(x, pair(z, y)). 0")
    assert isinstance(v, DistinguishedVerdict)
    # strategy: replay the output, then an input on fst(v) with no reply
    s = v.strategy
    assert isinstance(s, MoveNode) and s.label.kind == "out"
    leaf = s.children[0]
    while isinstance(leaf, (MoveNode, RefineNode)):
        leaf = leaf.children[0] if isinstance(leaf, MoveNode) else leaf.child
    assert "fst(" in leaf.label.rendered()


def test_aenc_pair_distinguished_via_refinement():
    v = check("new x. out(a, aenc(x, z)). 0",
              "new x. out(a, aenc(pair(x, y), z)). 0")
    assert isinstance(v, DistinguishedVerdict)
    s = v.strategy
    assert isinstance(s, MoveNode)
    child = s.children[0]
    assert isinstance(child, RefineNode)
    assert "pk(" in child.move.describe()
    leaf = child.child
    assert isinstance(leaf, StaticLeaf)
    pair = {str(leaf.left_recipe), str(leaf.right_recipe)}
    assert "y" in pair
    assert any(r.startswith("snd(adec(") for r in pair)


SERVER_A = "new k, r. out(a, pk(k)). in(a, x). out(a, r). 0"
SERVER_B = ("new k, r. out(a, pk(k)). in(a, x). "
            "if x = pk(k) then out(a, aenc(pair(m, r), pk(k))). 0 else out(a, r). 0")
SERVER_C = ("new k, r. out(a, pk(k)). in(a, x). "
            "if x = pk(k) then out(a, aenc(m, pk(k))). 0 else out(a, r). 0")


def test_server_a_b_bisimilar_with_valid_witness():
    v = check(SERVER_A, SERVER_B)
    assert isinstance(v, Bisimilar)
    assert validate_witness(v.witness, TH, CFG)


def test_server_a_c_distinguished():
    v = check(SERVER_A, SERVER_C)
    assert isinstance(v, DistinguishedVerdict)


def test_server_witness_covers_relation_schemas():
    v = check(SERVER_A, SERVER_B)
    keys = [pretty(a.body) + "~" + pretty(b.body) for (a, b) in v.witness.pairs]
    # initial pair, post-key pair (input pending), post-else, post-then runs
    assert any("out(a, pk(k" in k for k in keys)            # initial
    assert any(k.startswith("in(a,") for k in keys)         # after first output
    assert any("0~0" == k.replace(" ", "") for k in keys)   # final pairs


# ---------------------------------------------------------------------------
# Structural laws (Lemma: 0|P ~ P and friends)


STRUCT_P = "out(a, m). in(a, y). 0"
STRUCT_Q = "tau. out(b, n). 0"
STRUCT_R = "in(c, w). 0"


@pytest.mark.parametrize("l,r", [
    (f"0 | {STRUCT_P}", STRUCT_P),
    (f"{STRUCT_P} | {STRUCT_Q}", f"{STRUCT_Q} | {STRUCT_P}"),
    (f"({STRUCT_P} | {STRUCT_Q}) | {STRUCT_R}", f"{STRUCT_P} | ({STRUCT_Q} | {STRUCT_R})"),
    ("new x. new y. out(a, pair(x, y)). 0", "new y. new x. out(a, pair(x, y)). 0"),
    ("new x. 0", "0"),
])
def test_structural_laws(l, r):
    assert verdict(l, r) == "Bisimilar"


# ---------------------------------------------------------------------------
# Equivalence and congruence properties


CORPUS_BISIM = [
    (SERVER_A, SERVER_B),
    ("out(a, m). 0", "out(a, m). 0"),
    ("tau. tau. 0", "tau. tau. 0"),
    ("0 | in(a, x). 0", "in(a, x). 0"),
    ("new z. out(x, z). [x != z] tau. 0", "new z. out(x, z). tau. 0"),
]

CORPUS_DIST = [
    ("tau. 0", "0"),
    ("out(a, m). 0", "out(b, m). 0"),
    ("new z. out(x, pair(z, y)). in(z, w). 0", "new z. out(x, pair(z, y)). 0"),
    ("in(a, x). [x = m] tau. 0", "in(a, x). 0"),
]


def test_symmetry_of_verdicts():
    for l, r in CORPUS_BISIM + CORPUS_DIST:
        assert verdict(l, r) == verdict(r, l)


def test_reflexivity():
    for l, _ in CORPUS_BISIM + CORPUS_DIST:
        assert verdict(l, l) == "Bisimilar"


def test_transitivity_on_chain():
    p = "out(a, m). 0 | 0"
    q = "0 | out(a, m). 0"
    r = "out(a, m). 0"
    assert verdict(p, q) == "Bisimilar"
    assert verdict(q, r) == "Bisimilar"
    assert verdict(p, r) == "Bisimilar"


CONTEXTS = [
    lambda s: f"({s}) | out(c0, d0). 0",
    lambda s: f"in(c0, w0). ({s})",
    lambda s: f"new c1. ({s})",
    lambda s: f"({s}) + tau. 0",
]


def test_congruence_battery():
    for l, r in CORPUS_BISIM[:3]:
        for ctx in CONTEXTS:
            assert verdict(ctx(l), ctx(r)) == "Bisimilar", (l, r, ctx(l))


def test_barb_preservation_on_bisimilar_pairs():
    for l, r in CORPUS_BISIM:
        a, b = promote(parse_process(l)), promote(parse_process(r))
        assert barbs(a, TH) == barbs(b, TH), (l, r)


# ---------------------------------------------------------------------------
# Blind signatures and excluded middle


BLIND_R = ("new n. out(a, n). in(a, x). new k. out(a, sign(x, k)). in(a, y). "
           "[y = sign(n, k)] tau. 0")
BLIND_S = ("new n. out(a, n). in(a, x). new k. out(a, sign(x, k)). in(a, y). "
           "[y = sign(n, k)] [x = n] tau. 0")


def test_blind_signature_pair():
    th_sign = load_theory(corpus.path("dy-sign.thy"))
    assert verdict(BLIND_R, BLIND_S, th=th_sign) == "Bisimilar"
    assert verdict(BLIND_R, BLIND_S, th=THB) == "DistinguishedVerdict"


def test_excluded_middle_pair():
    a_body = "out(a, r). 0"
    d_body = "out(a, aenc(pair(m, r), pk(k))). 0"
    c_body = f"if x = pk(k) then {d_body} else {a_body}"
    R = f"in(a, x). ({c_body}) + in(a, x). {a_body} + in(a, x). {d_body}"
    S = f"in(a, x). {a_body} + in(a, x). {d_body}"
    assert verdict(R, S) == "DistinguishedVerdict"
    assert verdict(f"new k. out(a, pk(k)). ({R})",
                   f"new k. out(a, pk(k)). ({S})") == "Bisimilar"


# ---------------------------------------------------------------------------
# Witness validation and mutation


def test_validate_witness_mutation():
    v = check(SERVER_A, SERVER_B)
    w = v.witness
    assert validate_witness(w, TH, CFG)
    for drop in range(min(len(w.pairs), 12)):
        mutated = RelationWitness(
            w.pairs[:drop] + w.pairs[drop + 1:], w.root, w.mode, w.config
        )
        assert not validate_witness(mutated, TH, CFG), f"dropping pair {drop}"


def test_every_bisimilar_verdict_validates():
    for l, r in CORPUS_BISIM:
        v = check(l, r)
        assert isinstance(v, Bisimilar)
        assert validate_witness(v.witness, TH, CFG), (l, r)


@pytest.mark.parametrize("left,right,twin", [
    ("out(c, k). 0", "new k. out(c, k). 0", "new j. out(c, j). 0"),
    ("{w = k}", "new k. {w = k}", "new j. {w = j}"),
])
def test_alpha_variant_roots_get_one_verdict(left, right, twin):
    # the right side's private k is not the left side's public k: the pair
    # and its twin, which spells that private name j, are told apart alike
    results = []
    for r in (right, twin):
        v = quasi_open_check(parse(left), parse(r), TH, CFG)
        results.append((type(v), distinguish(parse(left), parse(r), TH, CFG)))
    (v1, (fl1, fr1)), (v2, (fl2, fr2)) = results
    assert v1 is v2 is DistinguishedVerdict
    assert formula_alpha_equiv(fl1, fl2) and formula_alpha_equiv(fr1, fr2)


def test_root_private_name_renamed_apart_keeps_the_witness_valid():
    l, r = "new j. out(c, j). [k = k] 0", "new k. out(c, k). 0"
    v = check(l, r)
    assert isinstance(v, Bisimilar)
    assert set(v.witness.root[1].privates).isdisjoint(v.witness.root[0].free_variables())
    assert validate_witness(v.witness, TH, CFG)


# ---------------------------------------------------------------------------
# Replication handling


def test_replication_rejected_without_budget():
    with pytest.raises(ReplicationUnbounded):
        check("rep out(a, m). 0", "out(a, m). 0")


def test_replication_with_unfold_budget():
    cfg = CheckConfig(recipe_depth=1, max_depth=24, unfold=2)
    v = quasi_open_check(
        parse_process("rep out(a, m). 0"),
        parse_process("out(a, m). out(a, m). 0"),
        TH, cfg,
    )
    assert isinstance(v, Bisimilar)


# ---------------------------------------------------------------------------
# Pi-fragment open bisimilarity


def pi(l, r):
    return type(open_bisim_pi_check(parse_process(l), parse_process(r), TH, CFG)).__name__


def test_pi_open_positives():
    assert pi("new z. out(x, z). [x != z] tau. 0", "new z. out(x, z). tau. 0") == "Bisimilar"
    assert pi("new z. [z != y] tau. 0", "tau. 0") == "Bisimilar"


def test_pi_open_negatives():
    assert pi("0", "[x != y] tau. 0") == "DistinguishedVerdict"
    assert pi("tau. 0", "[x != y] tau. 0") == "DistinguishedVerdict"
    assert pi("tau. 0 + tau. tau. 0",
              "tau. 0 + tau. tau. 0 + tau. [x != y] tau. 0") == "DistinguishedVerdict"
    assert pi("new z. out(x, z). in(x, y). [z != y] tau. 0",
              "new z. out(x, z). in(x, y). tau. 0") == "DistinguishedVerdict"
    assert pi("[x != z] (out(x, y). 0 | in(z, w). 0)",
              "[x != z] out(x, y). 0 | in(z, w). 0") == "DistinguishedVerdict"


def test_pi_witness_holds_only_the_alive_closure():
    # the checker also explores {} ~~ {} | tau. 0, which the solver kills;
    # it must not reach the witness
    p = parse_process("tau. 0 + tau. tau. 0")
    v = open_bisim_pi_check(p, p, TH, CheckConfig(recipe_depth=1, max_depth=24,
                                                  mode="late-pi"))
    assert isinstance(v, Bisimilar)
    assert [(pretty(a.body), pretty(b.body)) for a, b in v.witness.pairs] == [
        ("tau. 0 + tau. tau. 0", "tau. 0 + tau. tau. 0"),
        ("0", "0"),
        ("tau. 0", "tau. 0"),
    ]
    assert validate_witness(v.witness, TH)


def test_pi_rejects_crypto():
    with pytest.raises(NotPiFragment):
        open_bisim_pi_check(parse_process("out(a, hash(x)). 0"),
                            parse_process("0"), TH, CFG)


def test_quasi_and_pi_agree_on_curated_list():
    # the two notions differ in general; the paper states agreement here
    curated = [
        ("new z. out(x, z). [x != z] tau. 0", "new z. out(x, z). tau. 0", "Bisimilar"),
        ("tau. 0", "[x != y] tau. 0", "DistinguishedVerdict"),
        ("0", "[x != y] tau. 0", "DistinguishedVerdict"),
        ("out(x, y). 0", "out(x, y). 0", "Bisimilar"),
    ]
    for l, r, want in curated:
        assert verdict(l, r) == want
        assert pi(l, r) == want


# ---------------------------------------------------------------------------
# Independent oracle agreement (oracle lives in tests/_oracles.py)

from _oracles import _oracle_verdict, _small_corpus, exhaustive_payload_candidates


def test_oracle_agreement_on_small_processes():
    for l, r in _small_corpus():
        got = verdict(l, r)
        if got == "Unknown":
            continue
        want = _oracle_verdict(l, r)
        assert (got == "Bisimilar") == want, (l, r, got, want)


def test_depth_bound_returns_unknown():
    deep = "tau. " * 12 + "0"
    v = quasi_open_check(parse_process(deep), parse_process("tau. " * 11 + "0"),
                         TH, CheckConfig(recipe_depth=1, max_depth=3))
    assert isinstance(v, Unknown)
    assert "depth" in v.reason


# ---------------------------------------------------------------------------
# Memo tables: keys on exact content, results faithful to a fresh run

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from openbisim import bisim, corpus
from openbisim.bisim import (
    _EarlyGame, _StateView, _all_names, _payload_candidates,
    _payload_candidates_raw,
)
from openbisim.frames import Frame
from openbisim.names import NameGen
from openbisim.syntax import make_extended, substitute
from openbisim.terms import (
    App, NonTermination, RewriteRule, Substitution, Theory, Var,
    _generated_renaming, free_vars, load_theory, normalize, parse_term,
    render_term,
)


def _normal(p, th):
    ep = promote(p)
    return make_extended(ep.privates, ep.frame, ep.body, th, ep.frame_order)


def test_generated_renaming_keeps_order_and_prefixes():
    names = ["x#1", "x#12", "x#123", "x#13", "x#2", "y#40", "y#5", "k", "a#b"]
    ren = _generated_renaming(names)
    assert "k" not in ren and "a#b" not in ren
    assert ren["x#1"] != ren["x#2"] and ren["y#40"] != ren["y#5"]
    new = [ren.get(x, x) for x in names]
    for i, (p, q) in enumerate(zip(names, new)):
        for p2, q2 in zip(names[i + 1:], new[i + 1:]):
            assert (p < p2) == (q < q2), (p, p2, q, q2)
            assert p2.startswith(p) == q2.startswith(q), (p, p2, q, q2)
            assert p.startswith(p2) == q.startswith(q2), (p, p2, q, q2)
    # siblings that differ only in generated names share one renaming
    assert _generated_renaming(["z#7", "v#9"]) == {"z#7": "z#0", "v#9": "v#0"}
    assert _generated_renaming(["z#70", "v#3"]) == {"z#70": "z#0", "v#3": "v#0"}


def test_payload_cache_key_holds_publics():
    # the channel name is a public the candidates contain: a later state
    # that differs only in it must not reuse the earlier list
    th = dy_asym()

    def payloads(src, fresh):
        ep = _normal(parse_process(src), th)
        return [render_term(t) for t in _payload_candidates(ep, ep, th, CFG, fresh)]

    assert payloads("in(c, x). 0", "z#1") == ["z#1", "c"]
    assert payloads("in(d, x). 0", "z#2") == ["z#2", "d"]


def _shifted(ep, th):
    """`ep` with every free generated name base#d renamed base#9d: another
    session's names, in the same order and prefix relations."""
    ren = {x: x.replace("#", "#9", 1) for x in _all_names(ep) if "#" in x}
    sub = Substitution.of({x: Var(y) for x, y in ren.items()})
    frame = Substitution(tuple((ren.get(x, x), sub(t)) for x, t in ep.frame.bindings))
    return make_extended(tuple(ren.get(x, x) for x in ep.privates), frame,
                         substitute(ep.body, sub), th,
                         tuple(ren.get(x, x) for x in ep.frame_order))


def _explored(name):
    """The entry's theory and configuration, and the state pairs of every
    node of its game graph."""
    entry = next(e for e in corpus.ENTRIES if e.name == name)
    th = load_theory(corpus.path(entry.theory))
    cfg = CheckConfig(recipe_depth=entry.recipe_depth, max_depth=entry.max_depth)
    a = _normal(parse(corpus.read(entry.left)), th)
    b = _normal(parse(corpus.read(entry.right)), th)
    gen = NameGen()
    gen.reserve(_all_names(a) | _all_names(b))
    game = _EarlyGame(th, cfg, gen)
    game.node_for(a, b, 0)
    return th, cfg, [(n.a, n.b) for n in game.nodes.values()]


@pytest.mark.parametrize(
    "name", ["server-a-vs-b", "blind-without-equation", "pair-mismatch-worlds"])
def test_payload_cache_is_faithful(name):
    th, cfg, states = _explored(name)
    for pa, pb in states:
        _payload_candidates(pa, pb, th, cfg, "?z")
    shifted = [(_shifted(pa, th), _shifted(pb, th)) for pa, pb in states]
    assert any(s != t for s, t in zip(shifted, states))
    for pa, pb in states + shifted:
        views = (_StateView.of(pa), _StateView.of(pb))
        assert _payload_candidates(pa, pb, th, cfg, "?z") == \
            _payload_candidates_raw(*views, th, cfg, "?z")


@pytest.mark.parametrize("name", [
    "fixed-servers", "broken-servers", "lem-choice", "server-a-vs-c",
    "blind-forgery", "pair-mismatch-worlds"])
def test_payload_candidates_equal_the_exhaustive_filter(name, monkeypatch):
    # the payload list of a node, built from the recipes below the top
    # constructor layer and the top-layer recipes that may interact, equals
    # the exhaustive filter's (every recipe enumerated and imaged) in
    # content and order: for the states the game's payload table asked
    # for, and for the nodes and their copies with generated names
    # shifted.  At recipe depth 1 that is every node of the game; at depth
    # 2, where the exhaustive filter takes about a second per node, six
    # nodes spread over it.
    asked = []
    raw = bisim._payload_candidates_raw
    monkeypatch.setattr(bisim, "_payload_candidates_raw",
                        lambda a, b, *rest: asked.append((a, b)) or raw(a, b, *rest))
    th, cfg, states = _explored(name)
    monkeypatch.undo()
    memo = {}
    kept_compound = False
    for depth in sorted({1, cfg.recipe_depth}):
        at_depth = replace(cfg, recipe_depth=depth)
        picked = states if depth == 1 else states[::len(states) // 6 + 1]
        shifted = [(_shifted(pa, th), _shifted(pb, th)) for pa, pb in picked]
        assert any(s != t for s, t in zip(shifted, picked))
        views = [(_StateView.of(pa), _StateView.of(pb)) for pa, pb in picked + shifted]
        for va, vb in asked + views:
            got = _payload_candidates_raw(va, vb, th, at_depth, "?z")
            assert got == exhaustive_payload_candidates(va, vb, th, at_depth, "?z", memo)
            kept_compound |= any(isinstance(r, App) and r.args for r in got)
    assert kept_compound


_PRIVATE = ("k", "m", "n")
_BLIND = dy_blind()


def _blind_terms(names, depth):
    """Terms over `names` and every symbol of dy-blind, nested at most
    `depth` deep."""
    leaf = st.sampled_from(names).map(Var)
    if depth == 0:
        return leaf
    sub = _blind_terms(names, depth - 1)
    unary = st.sampled_from([fn for fn, n in _BLIND.symbols() if n == 1])
    binary = st.sampled_from([fn for fn, n in _BLIND.symbols() if n == 2])
    return st.one_of(leaf, st.builds(lambda f, a: App(f, (a,)), unary, sub),
                     st.builds(lambda f, a, b: App(f, (a, b)), binary, sub, sub))


def _view(privates, frame, guards, outputs):
    """The _StateView of a state with these parts, its terms normalized as
    make_extended leaves them."""
    def nf(t):
        return normalize(t, _BLIND)

    frame = Substitution(tuple((x, nf(t)) for x, t in frame))
    guards = tuple((kind, nf(s), nf(t)) for kind, s, t in guards)
    outputs = tuple(nf(t) for t in outputs)
    terms_ = [t for _, t in frame.bindings] + [u for _, s, t in guards for u in (s, t)]
    names = frozenset().union(*map(free_vars, terms_ + list(outputs)))
    free = names - frame.domain - set(privates)
    return _StateView(tuple(privates), frame, tuple(x for x, _ in frame.bindings),
                      guards, outputs, free)


@st.composite
def _state_pairs(draw, frame_size, publics):
    """Two states with one frame domain of up to `frame_size` entries of
    depth <= 2 over private names and `publics`, and up to two guards and
    two outputs each."""
    names = _PRIVATE + publics
    terms_ = _blind_terms(names, 2)
    domain = [f"w{i}" for i in range(draw(st.integers(0, frame_size)))]

    def state():
        privates = _PRIVATE if not publics else sorted(draw(st.sets(st.sampled_from(names))))
        guards = draw(st.lists(st.tuples(st.sampled_from(("=", "!=")), terms_, terms_),
                               max_size=2))
        return _view(privates, [(x, draw(terms_)) for x in domain], guards,
                     draw(st.lists(terms_, max_size=2)))

    return state(), state()


def _rigid_meet(w1):
    """A state whose top-layer recipe aenc(.., w2) can only interact by
    identifying the rigid names a and c through the ?0 of the guard's
    narrowing target aenc(pair(?1, pk(a)), pk(?0))."""
    return _view(("a", "b", "c", "x", "y"),
                 [("w1", parse_term(w1)), ("w2", parse_term("pk(a)"))],
                 [("=", parse_term("snd(adec(x, y))"), parse_term("pk(a)"))], [])


_RIGID_MEET_1 = _rigid_meet("pair(b, pk(c))")   # aenc(w1, w2)
_RIGID_MEET_2 = _rigid_meet("pk(c)")            # aenc(pair(?z, w1), w2)


@given(_state_pairs(3, ("a", "b")))
@example((_RIGID_MEET_1, _RIGID_MEET_1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_payload_candidates_on_random_states_depth_1(views):
    cfg = CheckConfig(recipe_depth=1)
    assert _payload_candidates_raw(*views, _BLIND, cfg, "?z") == \
        exhaustive_payload_candidates(*views, _BLIND, cfg, "?z")


# At depth 2 the exhaustive filter images 28,911 recipes per frame over
# three atoms, and 81,316 over four: the states have no public names
# and at most two frame entries.
@given(_state_pairs(2, ()))
@example((_RIGID_MEET_2, _RIGID_MEET_2))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_payload_candidates_on_random_states_depth_2(views):
    cfg = CheckConfig(recipe_depth=2)
    assert _payload_candidates_raw(*views, _BLIND, cfg, "?z") == \
        exhaustive_payload_candidates(*views, _BLIND, cfg, "?z")


def test_payload_images_keep_the_rewrite_ceiling():
    # f(w) is a top-layer candidate because the rule rewrites it at its
    # root; its image is computed under the theory's step ceiling
    looping = Theory(
        name="loop", signature={"f": 1, "g": 1},
        rules=(RewriteRule(parse_term("f(X)"), parse_term("g(f(X))")),),  # type: ignore[arg-type]
        rewrite_ceiling=50,
    )
    view = _view((), [("w", Var("a"))], [], [])
    with pytest.raises(NonTermination):
        _payload_candidates_raw(view, view, looping, CheckConfig(recipe_depth=1), "?z")


@pytest.mark.parametrize("name, sweep", [
    ("fixed-servers", False), ("broken-servers", False),
    ("aenc-under-refinement", True), ("blind-forgery", False)])
def test_recipe_images_are_faithful(name, sweep):
    # every image the check computed bottom-up equals frame.image of its
    # recipe, normalized from scratch under a fresh copy of the theory.
    # aenc-under-refinement is decided by static equivalence before any
    # input, so its check computes no images: there the payload candidates
    # of every node of its game are computed here, which images both
    # frames.
    entry = next(e for e in corpus.ENTRIES if e.name == name)
    th = load_theory(corpus.path(entry.theory))
    cfg = CheckConfig(recipe_depth=entry.recipe_depth, max_depth=entry.max_depth)
    a = parse(corpus.read(entry.left))
    b = parse(corpus.read(entry.right))
    quasi_open_check(a, b, th, cfg)
    if sweep:
        _, _, states = _explored(name)
        for pa, pb in states:
            _payload_candidates_raw(_StateView.of(pa), _StateView.of(pb), th, cfg, "?z")
    ref = load_theory(corpus.path(entry.theory))
    misses = th.memo["recipe_images"]
    assert misses
    root_rewrites = 0
    for (privates, bindings, order, *_), images in misses.items():
        frame = Frame(privates, Substitution(bindings), order)
        for r, img in images.items():
            assert img == frame.image(r, ref)
            if isinstance(r, App) and r.args:
                root_rewrites += img != App(r.fn, tuple(images[a] for a in r.args))
    assert root_rewrites


# ---------------------------------------------------------------------------
# The unifier table up to renaming, and the lean legality test of payloads

from openbisim import bisim, terms
from openbisim.terms import apply_map, free_vars, syntactic_unify, unify_mod

RECORDED = ("aenc-under-refinement", "lem-choice", "pair-mismatch-worlds",
            "blind-forgery")


@pytest.fixture(scope="module")
def recorded():
    """Each entry checked and, when distinguished, model-checked through
    `distinguish` on a theory of its own: the theory and the (image, target)
    pairs the payload relevance filter tested."""
    pairs = []
    lean = bisim._legal_unify_raw

    def recording(a, b):
        pairs.append((a, b))
        return lean(a, b)

    out = {}
    bisim._legal_unify_raw = recording
    try:
        for name in RECORDED:
            entry = next(e for e in corpus.ENTRIES if e.name == name)
            th = load_theory(corpus.path(entry.theory))
            cfg = CheckConfig(recipe_depth=entry.recipe_depth,
                              max_depth=entry.max_depth)
            a, b = parse(corpus.read(entry.left)), parse(corpus.read(entry.right))
            del pairs[:]
            if isinstance(quasi_open_check(a, b, th, cfg), DistinguishedVerdict):
                distinguish(a, b, th, cfg)
            out[name] = (th, list(pairs))
    finally:
        bisim._legal_unify_raw = lean
    return out


def _shift_names(t):
    """`t` with every generated name base#d renamed base#9d."""
    return apply_map(t, {x: Var(x.replace("#", "#9", 1))
                         for x in free_vars(t) if "#" in x})


@pytest.mark.parametrize("name", RECORDED)
def test_unify_mod_renamed_memo_is_faithful(name, recorded, monkeypatch):
    # every problem in the table (the ones met, and their renamed forms)
    # has the raw solver's answer on a fresh theory, in order
    th, _ = recorded[name]
    ref = load_theory(corpus.path(
        next(e for e in corpus.ENTRIES if e.name == name).theory))
    raw = terms._unify_mod_raw
    problems = list(th.memo["unify"])
    assert problems
    for s, t in problems:
        assert th.memo["unify"][(s, t)] == raw(s, t, ref), (s, t)
    # a copy with generated names shifted is served from the original's
    # entry, renamed back
    shifted = [(_shift_names(s), _shift_names(t)) for s, t in problems]
    assert any(p != q for p, q in zip(problems, shifted))
    solved = []
    monkeypatch.setattr(terms, "_unify_mod_raw",
                        lambda *args: solved.append(args) or raw(*args))
    for s, t in shifted:
        assert unify_mod(s, t, th) == raw(s, t, ref), (s, t)
    assert solved == []


def _legal_by_mgu(a, b):
    """The legality of a payload image against a target, defined on the
    resolved most general unifier."""
    mgu = syntactic_unify([(a, b)])
    if mgu is None:
        return False
    return all(x.startswith("?") or (isinstance(t, Var) and t.name.startswith("?"))
               for x, t in mgu.bindings)


def _q(text):
    """A term where `?` may start a variable name."""
    t = terms.parse_term(text.replace("?", "Q_"))
    return apply_map(t, {x: Var("?" + x[2:]) for x in free_vars(t)
                         if x.startswith("Q_")})


HAND_CASES = [
    ("?a", "x", True),                          # ? variable bound to a rigid one
    ("x", "?a", True),                          # rigid one reoriented onto it
    ("?a", "hash(?a)", False),                  # occurs check
    ("pair(?a, ?a)", "pair(x, y)", False),      # ?a := x forces x = y
    ("pair(x, x)", "pair(y, ?a)", False),       # x := ?a, then ?a := y
    ("pair(x, x)", "pair(hash(k), ?a)", False),  # x := ?a, then ?a := hash(k)
    ("pair(?z, x)", "pair(hash(y), ?0)", True),  # fresh-payload placeholder
    ("aenc(x, pk(?z))", "aenc(?0, pk(k))", True),
    ("hash(x)", "hash(pair(?0, ?1))", False),   # a rigid name bound to a term
    # two rigid names identified through one ? variable: a := ?1, c := ?1
    ("aenc(pair(?z, pk(c)), pk(a))", "aenc(pair(?0, pk(a)), pk(?1))", True),
]


def test_legal_unify_matches_mgu_definition(recorded):
    for image, target, legal in HAND_CASES:
        a, b = _q(image), _q(target)
        assert _legal_by_mgu(a, b) == legal, (image, target)
        assert bisim._legal_unify_raw(a, b) == legal, (image, target)
    pairs = [p for _, recorded_pairs in recorded.values() for p in recorded_pairs]
    assert any(_legal_by_mgu(a, b) for a, b in pairs)
    assert not all(_legal_by_mgu(a, b) for a, b in pairs)
    for a, b in pairs:
        assert bisim._legal_unify_raw(a, b) == _legal_by_mgu(a, b), (a, b)


def test_may_unify_over_approximates_legality(recorded):
    # the arguments of a legally unifiable pair of applications may unify
    # one by one: the top recipe layer of the payloads relies on it
    pairs = [(_q(image), _q(target)) for image, target, _ in HAND_CASES]
    pairs += [p for _, recorded_pairs in recorded.values() for p in recorded_pairs]
    legal = [(a, b) for a, b in pairs if isinstance(a, App) and isinstance(b, App)
             and bisim._legal_unify_raw(a, b)]
    assert any(len(a.args) > 1 for a, _ in legal)
    for a, b in legal:
        assert all(map(bisim._may_unify, a.args, b.args)), (a, b)
    assert not bisim._may_unify(Var("x"), _q("pk(?0)"))
    assert bisim._may_unify(Var("x"), Var("y"))


# ---------------------------------------------------------------------------
# Witness validation shared out over forked workers: the one-process answer,
# the one-process exception, and no worker left behind

import os
import signal
import threading

from openbisim.syntax import canonical_key

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

BISIMILAR = [e for e in corpus.ENTRIES
             if e.expect == "bisimilar" and e.kind in ("bisim", "bisim-pi")
             and e.name != "hash-and-sign"]   # tests/test_golden.py holds it


def _no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _expansions(monkeypatch, log, acts=()):
    """Append "pid key" to the file `log` for every pair expanded, in
    whichever process; expanding a pair of `acts`, a list of (pair, act),
    then calls its `act()`."""
    by_key = {canonical_key(*pair): act for pair, act in acts}
    real = _EarlyGame._expand

    def expand(self, node, replay=None):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {node.key}\n")
        if node.key in by_key:
            by_key[node.key]()
        return real(self, node, replay)

    monkeypatch.setattr(_EarlyGame, "_expand", expand)


def _processes(monkeypatch, n):
    """Validate over n processes, whatever the CPUs and the witness size."""
    monkeypatch.setattr(bisim, "_usable_cpus", lambda pairs: n)


def _expanded_by(log, key):
    """The pids that expanded the pair with `key`, per the log."""
    with open(log) as fh:
        return {int(pid) for pid, k in (l.rstrip("\n").split(" ", 1) for l in fh)
                if k == key}


@needs_fork
@pytest.mark.parametrize("entry", BISIMILAR, ids=lambda e: e.name)
def test_forked_validation_matches_one_process(entry, monkeypatch):
    pi = entry.kind == "bisim-pi"
    th = load_theory(corpus.path(entry.theory))
    cfg = CheckConfig(recipe_depth=entry.recipe_depth, max_depth=entry.max_depth,
                      mode="late-pi" if pi else "early-applied")
    game = open_bisim_pi_check if pi else quasi_open_check
    v = game(parse(corpus.read(entry.left)), parse(corpus.read(entry.right)), th, cfg)
    assert isinstance(v, Bisimilar)
    _processes(monkeypatch, 1)
    want = validate_witness(v.witness, th, cfg)
    assert want
    for processes in (2, 3):
        _processes(monkeypatch, processes)
        assert validate_witness(v.witness, th, cfg) == want
        _no_worker_left()


@needs_fork
def test_forked_validation_rejects_every_mutation(monkeypatch, tmp_path):
    # criterion 11e's mutations: drop any one pair
    w = check(SERVER_A, SERVER_B).witness
    log = tmp_path / "expanded"
    _expansions(monkeypatch, log)
    failed_in = set()
    for drop in range(len(w.pairs)):
        mutated = RelationWitness(w.pairs[:drop] + w.pairs[drop + 1:],
                                  w.root, w.mode, w.config)
        # the one-process loop stops at the first pair that fails
        log.write_text("")
        _processes(monkeypatch, 1)
        assert not validate_witness(mutated, TH, CFG)
        first_bad = log.read_text().splitlines()[-1:]   # []: the root test failed
        for processes in (2, 3):
            log.write_text("")
            _processes(monkeypatch, processes)
            assert not validate_witness(mutated, TH, CFG), drop
            _no_worker_left()
            if first_bad:
                key = first_bad[0].split(" ", 1)[1]
                failed_in.add("parent" if _expanded_by(log, key) == {os.getpid()}
                              else "worker")
    # the damaged pair fell in the parent's blocks and in a worker's
    assert failed_in == {"parent", "worker"}


@needs_fork
@pytest.mark.parametrize("victim", [0, 1], ids=["parent-block", "worker-block"])
def test_exception_of_a_block_is_raised_by_the_parent(victim, monkeypatch, tmp_path):
    w = check(SERVER_A, SERVER_B).witness
    log = tmp_path / "expanded"

    def loop():
        raise NonTermination("rewriting does not terminate")

    _expansions(monkeypatch, log, [(w.pairs[victim], loop)])
    _processes(monkeypatch, 1)
    with pytest.raises(NonTermination):
        validate_witness(w, TH, CFG)
    log.write_text("")
    _processes(monkeypatch, 2)
    with pytest.raises(NonTermination):
        validate_witness(w, TH, CFG)
    _no_worker_left()
    # pair 0 is the parent's, pair 1 a worker's; a worker's block is
    # checked again by the parent, which raises
    by = _expanded_by(log, canonical_key(*w.pairs[victim]))
    assert (by == {os.getpid()}) == (victim == 0)
    assert os.getpid() in by


@needs_fork
def test_earlier_false_wins_over_later_exception(monkeypatch, tmp_path):
    # pair 1 (a worker's block) fails, pair 2 (the parent's) raises: the
    # one-process loop stops at pair 1, so the answer is False.  The parent
    # checks pair 1 again once a process fails; pair 2 is the parent's alone
    w = check(SERVER_A, SERVER_B).witness

    def unbounded():
        raise ReplicationUnbounded("replication requires an unfolding bound")

    def loop():
        raise NonTermination("rewriting does not terminate")

    log = tmp_path / "expanded"
    _expansions(monkeypatch, log, [(w.pairs[1], unbounded), (w.pairs[2], loop)])
    _processes(monkeypatch, 1)
    assert validate_witness(w, TH, CFG) is False
    log.write_text("")
    _processes(monkeypatch, 2)
    assert validate_witness(w, TH, CFG) is False
    _no_worker_left()
    assert _expanded_by(log, canonical_key(*w.pairs[2])) == {os.getpid()}


@needs_fork
def test_dead_worker_blocks_are_checked_again(monkeypatch, tmp_path):
    w = check(SERVER_A, SERVER_B).witness
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            # killed: an exit status would be read as the worker's report
            os.kill(os.getpid(), signal.SIGKILL)

    log = tmp_path / "expanded"
    _expansions(monkeypatch, log, [(w.pairs[1], die)])
    _processes(monkeypatch, 3)
    assert validate_witness(w, TH, CFG)
    _no_worker_left()
    assert parent in _expanded_by(log, canonical_key(*w.pairs[1]))


@needs_fork
@pytest.mark.parametrize("k", [0, 2, 6])
@pytest.mark.parametrize("how", ["fails", "raises"])
def test_worker_report_spares_its_passed_blocks(k, how, monkeypatch, tmp_path):
    # 14 pairs over 2 processes: blocks of one pair, the worker's share the
    # odd ones.  Its k-th block fails or raises in the worker alone, so the
    # worker exits with 1 + k; the parent checks that block and the later
    # ones of the share again, and none before it
    w = check(SERVER_A, SERVER_B).witness
    assert len(w.pairs) == 14
    parent = os.getpid()

    def fail():
        if os.getpid() != parent:
            if how == "fails":
                raise ReplicationUnbounded("replication requires an unfolding bound")
            raise NonTermination("rewriting does not terminate")

    log = tmp_path / "expanded"
    _expansions(monkeypatch, log, [(w.pairs[1 + 2 * k], fail)])
    _processes(monkeypatch, 2)
    assert validate_witness(w, TH, CFG)
    _no_worker_left()
    by_parent = [parent in _expanded_by(log, canonical_key(*w.pairs[j]))
                 for j in range(1, 14, 2)]
    assert by_parent == [i >= k for i in range(7)]


def _no_fork():
    # pytest.fail raises past the `except Exception` of bisim._forked_all
    pytest.fail("a worker was forked")


def test_validation_runs_in_one_process_without_fork(monkeypatch):
    w = check(SERVER_A, SERVER_B).witness
    monkeypatch.delattr(os, "fork", raising=False)
    _processes(monkeypatch, 2)
    assert validate_witness(w, TH, CFG)


def test_small_witness_or_running_thread_is_not_forked(monkeypatch):
    w = check(SERVER_A, SERVER_B).witness
    monkeypatch.setattr(os, "fork", _no_fork)
    assert len(w.pairs) < bisim._FORK_MIN_PAIRS
    assert validate_witness(w, TH, CFG)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        _processes(monkeypatch, 2)
        assert validate_witness(w, TH, CFG)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


# ---------------------------------------------------------------------------
# The explored game holds each piece once: successors normalized as they are
# rebuilt, edges that hold the stored nodes' keys

from openbisim.bisim import _Game, _SideMove
from openbisim.lts import InputSchema

from _oracles import input_successor, world_move_successor

EARLY = [e for e in corpus.ENTRIES
         if e.kind == "bisim" and e.name != "hash-and-sign"]   # 24,172 nodes


def _early_check(entry):
    th = load_theory(corpus.path(entry.theory))
    cfg = CheckConfig(recipe_depth=entry.recipe_depth, max_depth=entry.max_depth)
    return quasi_open_check(parse(corpus.read(entry.left)),
                            parse(corpus.read(entry.right)), th, cfg)


@pytest.mark.parametrize("entry", EARLY, ids=lambda e: e.name)
def test_successors_equal_the_make_extended_oracle(monkeypatch, entry):
    seen = {"world": 0, "input": 0}
    apply = bisim.apply_world_move
    instantiate = InputSchema.instantiate

    def same(got, want, kind):
        assert got == want, (kind, got, want)
        assert canonical_key(got) == canonical_key(want)
        seen[kind] += 1
        return got

    monkeypatch.setattr(bisim, "apply_world_move", lambda ep, mv, th: same(
        apply(ep, mv, th), world_move_successor(ep, mv, th), "world"))
    monkeypatch.setattr(InputSchema, "instantiate", lambda schema, payload: same(
        instantiate(schema, payload), input_successor(schema, payload), "input"))
    want = {"bisimilar": Bisimilar, "distinguished": DistinguishedVerdict}[entry.expect]
    assert isinstance(_early_check(entry), want)
    assert seen["world"] + seen["input"] > 0


def test_explored_nodes_hold_only_child_keys(monkeypatch):
    games = []
    solve = _Game.solve

    def keep(game):
        games.append(game)
        return solve(game)

    monkeypatch.setattr(_Game, "solve", keep)
    entry = next(e for e in corpus.ENTRIES if e.name == "fixed-servers")
    assert isinstance(_early_check(entry), Bisimilar)
    (game,) = games

    def stored(key):
        return type(key) is str and game.nodes[key].key is key

    edges = moves = 0
    for node in game.nodes.values():
        assert stored(node.key)
        assert all(map(stored, node.world_edges))
        for m in node.side_moves:
            assert type(m) is _SideMove
            assert (type(m.side), type(m.kind), type(m.reply_complete)) == (int, str, bool)
            assert type(m.replies) is tuple and all(map(stored, m.replies))
        edges += len(node.world_edges)
        moves += len(node.side_moves)
    assert edges and moves
