"""Game-solver tests: paper pairs, structural laws, properties, oracle."""

import pytest

from openbisim.bisim import (
    Bisimilar, CheckConfig, DistinguishedVerdict, MoveNode, RefineNode,
    RelationWitness, StaticLeaf, Unknown, open_bisim_pi_check,
    quasi_open_check, validate_witness,
)
from openbisim.lts import NotPiFragment, ReplicationUnbounded, barbs
from openbisim.syntax import parse_process, pretty, promote
from openbisim.terms import dy_asym, dy_blind, parse_theory, THEORY_SOURCES

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
    assert isinstance(s, MoveNode) and s.label_data[0] == "out"
    leaf = s.children[0]
    while isinstance(leaf, (MoveNode, RefineNode)):
        leaf = leaf.children[0] if isinstance(leaf, MoveNode) else leaf.child
    assert "fst(" in leaf.label


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
    th_sign = parse_theory(THEORY_SOURCES["dy-asym"] + "sym sign/2", name="dy-sign")
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

from _oracles import _oracle_verdict, _small_corpus


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
# Memo tables: keys renamed canonically, results faithful to a fresh run

from openbisim import corpus
from openbisim.bisim import (
    _EarlyGame, _StateView, _all_names, _cached_worlds, _generated_renaming,
    _payload_candidates, _payload_candidates_raw, _publics, _recipe_images,
    _representative_worlds,
)
from openbisim.frames import Frame
from openbisim.names import NameGen
from openbisim.syntax import make_extended, parse, substitute
from openbisim.terms import App, Substitution, Var, load_theory, render_term


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


@pytest.mark.parametrize(
    "name", ["server-a-vs-b", "blind-without-equation", "pair-mismatch-worlds"])
def test_world_and_payload_caches_are_faithful(name):
    entry = next(e for e in corpus.ENTRIES if e.name == name)
    th = load_theory(corpus.path(entry.theory))
    cfg = CheckConfig(recipe_depth=entry.recipe_depth, max_depth=entry.max_depth)
    a = _normal(parse(corpus.read(entry.left)), th)
    b = _normal(parse(corpus.read(entry.right)), th)
    gen = NameGen()
    gen.reserve(_all_names(a) | _all_names(b))
    game = _EarlyGame(th, cfg, gen)
    game.node_for(a, b, 0)
    states = [(n.a, n.b) for n in game.nodes.values()]
    for pa, pb in states:
        _payload_candidates(pa, pb, th, cfg, "?z")
    entries = (len(th._aux["worlds_cache"]), len(th._aux["payload_cache"]))
    shifted = [(_shifted(pa, th), _shifted(pb, th)) for pa, pb in states]
    assert any(s != t for s, t in zip(shifted, states))
    for pa, pb in states + shifted:
        views = (_StateView.of(pa), _StateView.of(pb))
        assert _cached_worlds(views, th) == _representative_worlds(
            views, th, (), frozenset())
        assert _payload_candidates(pa, pb, th, cfg, "?z") == \
            _payload_candidates_raw(*views, th, cfg, "?z")
    # the shifted states were served from the entries of the originals
    assert (len(th._aux["worlds_cache"]), len(th._aux["payload_cache"])) == entries


@pytest.mark.parametrize("name, sweep", [
    ("fixed-servers", False), ("broken-servers", False),
    ("aenc-under-refinement", True), ("blind-forgery", False)])
def test_recipe_images_are_faithful(name, sweep):
    # every image list the check computed bottom-up equals frame.image of
    # each recipe, normalized from scratch under a fresh copy of the theory.
    # aenc-under-refinement is decided by static equivalence before any
    # input, so its check computes no images: there the images of both
    # frames of every node of its game are computed here.
    entry = next(e for e in corpus.ENTRIES if e.name == name)
    th = load_theory(corpus.path(entry.theory))
    cfg = CheckConfig(recipe_depth=entry.recipe_depth, max_depth=entry.max_depth)
    a = parse(corpus.read(entry.left))
    b = parse(corpus.read(entry.right))
    quasi_open_check(a, b, th, cfg)
    if sweep:
        a, b = _normal(a, th), _normal(b, th)
        gen = NameGen()
        gen.reserve(_all_names(a) | _all_names(b))
        game = _EarlyGame(th, cfg, gen)
        game.node_for(a, b, 0)
        for node in game.nodes.values():
            va, vb = _StateView.of(node.a), _StateView.of(node.b)
            for v in (va, vb):
                frame = Frame(frozenset(v.privates), v.frame, v.frame_order)
                _recipe_images(frame, th, cfg.recipe_depth, _publics(va, vb), "?z")
    ref = load_theory(corpus.path(entry.theory))
    misses = th._aux["recipe_images"]
    assert misses
    root_rewrites = 0
    for (privates, bindings, order, publics, fresh, depth), images in misses.items():
        frame = Frame(privates, Substitution(bindings), order)
        recipes = th._aux["recipes"][(order, publics, fresh, depth)]
        want = tuple(frame.image(r, ref) for r in recipes)
        assert images == want
        by_recipe = dict(zip(recipes, want))
        root_rewrites += sum(
            1 for r, img in by_recipe.items() if isinstance(r, App) and r.args
            and img != App(r.fn, tuple(by_recipe[a] for a in r.args)))
    assert root_rewrites


# ---------------------------------------------------------------------------
# The unifier table up to renaming, and the lean legality test of payloads

from openbisim import bisim, terms
from openbisim.logic import distinguish
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
    problems = list(th._unify_cache)
    assert problems
    for s, t in problems:
        assert th._unify_cache[(s, t)] == raw(s, t, ref), (s, t)
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
