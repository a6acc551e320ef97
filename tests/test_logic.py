"""Modal-logic tests: satisfaction (both modes), parsing, distinguishing
formulas, hereditariness, duality failure."""

import pytest
from test_golden import ENTRIES, PI_DIGESTS, config, fresh, pi_pair

from openbisim import corpus
from openbisim.bisim import (
    Bisimilar, CapabilityLeaf, CheckConfig, DistinguishedVerdict, MoveNode,
    RefineNode, open_bisim_pi_check, quasi_open_check, representative_worlds,
    apply_world_move,
)
from openbisim.cli import render_strategy
from openbisim.logic import (
    Bottom, Box, Diamond, Equal, Implies, NotDistinguished, Sat, Top,
    check, check_pi, distinguish, formula_alpha_equiv, neq, parse_formula,
    pretty_formula, subst_formula,
)
from openbisim.lts import Label
from openbisim.names import NameGen
from openbisim.syntax import make_extended, parse, parse_process, promote
from openbisim.terms import Substitution, Var, dy_asym, dy_blind

TH = dy_asym()
THB = dy_blind()
CFG = CheckConfig(recipe_depth=1, max_depth=16)
PI_CFG = CheckConfig(recipe_depth=1, max_depth=16, mode="late-pi")


def P(src):
    return parse_process(src)


def F(src):
    return parse_formula(src)


# ---------------------------------------------------------------------------
# Parsing and printing


def test_parse_box_ff():
    f = F("[tau]ff")
    assert f == Box(Label("tau"), Bottom())


def test_parse_implication_sugar():
    f = F("x != y => <tau>tt")
    assert f == Implies(neq(Var("x"), Var("y")), Diamond(Label("tau"), Top()))


def test_parse_labels():
    f = F("<a!(v)><a?v>[b!n] (v = n)")
    assert isinstance(f, Diamond) and f.label.kind == "out"
    inner = f.body
    assert inner.label.kind == "in" and inner.label.payload == Var("v")
    assert inner.body.label.kind == "free-out"


def test_keywords_are_whole_identifiers():
    assert F("ttl = a") == Equal(Var("ttl"), Var("a"))
    assert F("ffo = a") == Equal(Var("ffo"), Var("a"))
    assert F("<taux!(v#1)>tt") == Diamond(Label("out", Var("taux"), binder="v#1"), Top())


def test_roundtrip_corpus():
    corpus = [
        "tt", "ff", "[tau]ff", "x != y => <tau>tt", "ttl = a & <taux!(v#1)>ffo != b",
        r"[tau]([tau]ff \/ <tau>tt)",
        "<tau>((x != y => <tau>tt) & [tau]x != y)",
        "<a!(v)><a?v><a!(w)>aenc(m, v) = w",
        r"[a!(u)](x = pk(k) \/ x != pk(k))",
        "<x!(z)><x?(y)><tau>tt",
    ]
    for src in corpus:
        f = F(src)
        assert F(pretty_formula(f)) == f, src


def test_subst_formula_avoids_capture():
    f = F("<a!(u)> u = x")
    g = subst_formula(f, Substitution.of({"x": Var("u")}))
    assert g.label.binder != "u"
    assert g.body.right == Var("u")


# ---------------------------------------------------------------------------
# Satisfaction: pi mode (OM examples)


def test_om_guarded_tau():
    p = P("[x != y] tau. 0")
    assert check_pi(p, F("x != y => <tau>tt"), TH, PI_CFG) is Sat.SAT
    assert check_pi(p, F("<tau>tt"), TH, PI_CFG) is Sat.UNSAT
    assert check_pi(p, F("[tau](x != y)"), TH, PI_CFG) is Sat.SAT


def test_om_deadlock_box():
    assert check_pi(P("0"), F("[tau]ff"), TH, PI_CFG) is Sat.SAT
    assert check_pi(P("tau. 0"), F("[tau]ff"), TH, PI_CFG) is Sat.UNSAT


def test_om_top():
    assert check_pi(P("[x != y] tau. 0"), F("tt"), TH, PI_CFG) is Sat.SAT


def test_om_diamond_is_unknown_over_an_unknown_successor():
    # seven guards make the world closure longer than the world cap, so
    # [tau]tt is unknown on p and on its tau successor: <tau>[tau]tt is
    # unknown too, not unsat
    p = P("tau. " + " ".join(f"[x{i} != x{i}]" for i in range(1, 8)) + " tau. 0")
    assert check_pi(p, F("[tau]tt"), TH, PI_CFG) is Sat.UNKNOWN
    assert check_pi(p, F("<tau>[tau]tt"), TH, PI_CFG) is Sat.UNKNOWN


# ---------------------------------------------------------------------------
# Satisfaction: applied-pi mode


SERVER_A = P("new k, r. out(a, pk(k)). in(a, x). out(a, r). 0")
SERVER_C = P("new k, r. out(a, pk(k)). in(a, x). "
             "if x = pk(k) then out(a, aenc(m, pk(k))). 0 else out(a, r). 0")
ATTACK = F("<a!(v)><a?v><a!(w)> aenc(m, v) = w")


def test_attack_formula_separates_servers():
    assert check(SERVER_C, ATTACK, TH, CFG) is Sat.SAT
    assert check(SERVER_A, ATTACK, TH, CFG) is Sat.UNSAT


def test_any_process_satisfies_top():
    assert check(SERVER_A, F("tt"), TH, CFG) is Sat.SAT


def test_excluded_middle_example():
    a_body = "out(a, r). 0"
    d_body = "out(a, aenc(pair(m, r), pk(k))). 0"
    c_body = f"if x = pk(k) then {d_body} else {a_body}"
    R = P(f"in(a, x). ({c_body}) + in(a, x). {a_body} + in(a, x). {d_body}")
    S = P(f"in(a, x). {a_body} + in(a, x). {d_body}")
    lem = F(r"<a?x>[a!(u)](x = pk(k) \/ x != pk(k))")
    assert check(R, lem, TH, CFG) is Sat.SAT
    assert check(S, lem, TH, CFG) is Sat.UNSAT


def test_box_diamond_are_not_classical_duals():
    # [a!(u)](x = pk(k) \/ x != pk(k)) would be a classical tautology; here it
    # distinguishes, so the checker must not implement box as not-diamond-not
    ap = P("out(a, r). 0")
    cp = P("if x = pk(k) then out(a, aenc(pair(m, r), pk(k))). 0 else out(a, r). 0")
    lem = F(r"[a!(u)](x = pk(k) \/ x != pk(k))")
    assert check(ap, lem, TH, CFG) is Sat.UNSAT
    assert check(cp, lem, TH, CFG) is Sat.SAT
    # both have an output available, so a classical reading would make the
    # box vacuously true on ap as well
    assert check(ap, F("<a!(u)>tt"), TH, CFG) is Sat.SAT


def test_blind_attack_formula():
    R = P("new n. out(a, n). in(a, x). new k. out(a, sign(x, k)). in(a, y). "
          "[y = sign(n, k)] tau. 0")
    f = F("<a!(u)><a?blind(u, z)><a!(v)><a?unblind(v, z)><tau>tt")
    assert check(R, f, THB, CFG) is Sat.SAT
    assert check(R, f, TH.__class__(  # same signature, no blind equation
        name="dy-free", signature=dict(THB.signature), rules=TH.rules,
    ), CFG) is Sat.UNSAT


def test_broken_server_trace_formula():
    Pa = "[snd(adec(y, c)) = pk(a)] new n. out(x, aenc(pair(fst(adec(y, c)), pair(n, pk(c))), pk(a))). 0"
    Pb = "[snd(adec(y, c)) = pk(b)] new n. out(x, aenc(pair(fst(adec(y, c)), pair(n, pk(b))), pk(b))). 0"
    ctx = "new a, b, c. out(x, pk(a)). out(x, pk(b)). out(x, pk(c)). "
    broken = P(ctx + f"in(x, y). ({Pa})")
    brokenp = P(ctx + f"in(x, y). ({Pb})")
    trace = F("<x!(u)><x!(v)><x!(w)><x?aenc(pair(z, u), w)><x!(s)>tt")
    assert check(broken, trace, TH, CheckConfig(recipe_depth=2, max_depth=16)) is Sat.SAT
    assert check(brokenp, trace, TH, CheckConfig(recipe_depth=2, max_depth=16)) is Sat.UNSAT


# ---------------------------------------------------------------------------
# Logical-equivalence soundness on bisimilar pairs


def test_bisimilar_pairs_agree_on_formulas():
    pairs = [
        ("new z. out(x, z). [x != z] tau. 0", "new z. out(x, z). tau. 0"),
        ("0 | out(a, m). 0", "out(a, m). 0"),
    ]
    formulas = [
        "<x!(u)>tt", "[tau]ff", "<a!(u)> u = m",
        "<x!(u)><tau>tt", "[x!(u)][tau]ff",
    ]
    for l, r in pairs:
        pl, pr = P(l), P(r)
        assert isinstance(quasi_open_check(pl, pr, TH, CFG), Bisimilar)
        for fs in formulas:
            f = F(fs)
            assert check(pl, f, TH, CFG) == check(pr, f, TH, CFG), (l, r, fs)


# ---------------------------------------------------------------------------
# Hereditariness (intuitionistic monotonicity) sampling


def test_hereditariness_under_refinements():
    gen = NameGen()
    samples = [
        (P("[x != y] in(a, w). 0"), F("x != y => <a?q>tt")),
        (P("out(a, hash(x)). 0"), F("<a!(u)> u = hash(x)")),
        (P("if x = pk(k) then tau. 0 else out(a, r). 0"), F("x = pk(k) => <tau>tt")),
    ]
    for proc, f in samples:
        ep = promote(proc)
        ep = make_extended(ep.privates, ep.frame, ep.body, TH, ep.frame_order)
        if check(ep, f, TH, CFG) is not Sat.SAT:
            continue
        moves, _ = representative_worlds((ep,), TH, gen)
        for mv in moves:
            refined = apply_world_move(ep, mv, TH)
            f2 = subst_formula(f, mv.formula_sigma())
            assert check(refined, f2, TH, CFG) is Sat.SAT, (
                pretty_formula(f), mv.describe()
            )


# ---------------------------------------------------------------------------
# Distinguishing formulas


def _expect_pair(l, r, want_l, want_r, cfg=PI_CFG, flexible=frozenset()):
    res = distinguish(P(l), P(r), TH, cfg)
    assert isinstance(res, tuple), res
    fl, fr = res
    assert formula_alpha_equiv(fl, F(want_l), flexible), pretty_formula(fl)
    assert formula_alpha_equiv(fr, F(want_r), flexible), pretty_formula(fr)
    return fl, fr


def test_distinguish_om_deadlock_pair():
    _expect_pair("0", "[x != y] tau. 0", "[tau]ff", "x != y => <tau>tt")


def test_distinguish_om_tau_pair():
    _expect_pair("tau. 0", "[x != y] tau. 0", "<tau>tt", "[tau](x != y)")


def test_distinguish_om_triple_sum():
    _expect_pair(
        "tau. 0 + tau. tau. 0",
        "tau. 0 + tau. tau. 0 + tau. [x != y] tau. 0",
        r"[tau]([tau]ff \/ <tau>tt)",
        "<tau>((x != y => <tau>tt) & [tau](x != y))",
    )


def test_distinguish_om_output_input_pair():
    _expect_pair(
        "new z. out(x, z). in(x, y). [z != y] tau. 0",
        "new z. out(x, z). in(x, y). tau. 0",
        "[x!(z)][x?(y)][tau](z != y)",
        "<x!(z)><x?(y)><tau>tt",
    )


def test_distinguish_identity_not_distinguished():
    assert isinstance(distinguish(P("tau. 0"), P("tau. 0"), TH, PI_CFG),
                      NotDistinguished)
    assert isinstance(distinguish(SERVER_A, SERVER_A, TH, CFG), NotDistinguished)


def test_distinguish_mobility_formulas():
    res = distinguish(P("new z. out(x, pair(z, y)). in(z, w). 0"),
                      P("new z. out(x, pair(z, y)). 0"), TH, CFG)
    fl, fr = res
    assert formula_alpha_equiv(fl, F("<x!(u)><fst(u)?q>tt"), frozenset({"q"}))
    assert formula_alpha_equiv(fr, F("[x!(u)][fst(u)?q]ff"), frozenset({"q"}))


def test_distinguish_self_checks_serverA_serverC():
    res = distinguish(SERVER_A, SERVER_C, TH, CFG)
    fl, fr = res
    assert check(SERVER_A, fl, TH, CFG) is Sat.SAT
    assert check(SERVER_C, fl, TH, CFG) is Sat.UNSAT
    assert check(SERVER_C, fr, TH, CFG) is Sat.SAT
    assert check(SERVER_A, fr, TH, CFG) is Sat.UNSAT


def test_distinguish_aenc_refinement_pair():
    res = distinguish(P("new x. out(a, aenc(x, z)). 0"),
                      P("new x. out(a, aenc(pair(x, y), z)). 0"), TH, CFG)
    fl, fr = res
    # the right-biased formula records the refinement z = pk(w) and the
    # distinguishing recipes snd(adec(u, w)) and y
    s = pretty_formula(fr)
    assert "pk(" in s and "snd(adec(" in s and "y" in s


def test_unknown_propagates_from_truncated_entailment():
    from openbisim.terms import Theory
    shallow = Theory(
        name="shallow", signature=dict(TH.signature), rules=TH.rules,
        unification_bound=0,
    )
    # the mismatch guard cannot be decided at narrowing depth 0, so the
    # diamond can neither be confirmed nor refuted
    p = P("[snd(adec(y, c)) != pk(a)] tau. 0")
    assert check(p, F("<tau>tt"), shallow, CFG) is Sat.UNKNOWN


def test_unhoused_private_variable_rejected():
    from openbisim.logic import UnhousedVariable
    ep = parse_process("new s. out(a, hash(s)). 0")
    from openbisim.syntax import promote
    epp = promote(ep)
    with pytest.raises(UnhousedVariable):
        check(epp, F(f"{epp.privates[0]} = m"), TH, CFG)


# ---------------------------------------------------------------------------
# Strategy labels are formula labels


def _labelled_nodes(s):
    """The capability leaves and move nodes of a strategy."""
    if isinstance(s, RefineNode):
        yield from _labelled_nodes(s.child)
    elif isinstance(s, (CapabilityLeaf, MoveNode)):
        yield s
        for c in getattr(s, "children", ()):
            yield from _labelled_nodes(c)


def _distinguishing_strategies():
    """The strategies of the distinguished corpus pairs, and of the pinned
    seeded pi pairs in both modes."""
    for entry in ENTRIES:
        if entry.kind in ("bisim", "bisim-pi"):
            game = open_bisim_pi_check if entry.kind == "bisim-pi" else quasi_open_check
            v = game(parse(corpus.read(entry.left)), parse(corpus.read(entry.right)),
                     fresh(entry), config(entry))
            if isinstance(v, DistinguishedVerdict):
                yield v.strategy
    for seed in sorted(PI_DIGESTS):
        p, q = (P(src) for src in pi_pair(seed))
        for game, cfg in ((quasi_open_check, CFG), (open_bisim_pi_check, PI_CFG)):
            v = game(p, q, TH, cfg)
            if isinstance(v, DistinguishedVerdict):
                yield v.strategy


def test_strategy_labels_read_back_as_formula_labels():
    # validate_strategy_text re-reads a capability leaf's printed label as
    # the formula <label>tt; distinguish puts the same label in a modality
    labels = 0
    for strategy in _distinguishing_strategies():
        for node in _labelled_nodes(strategy):
            text = node.label.rendered()
            assert parse_formula(f"<{text}>tt").label == node.label, text
            line = render_strategy(node).splitlines()[0]
            printed = line.split(" ", 2)[2]
            assert printed == text or printed.startswith(text + " at"), line
            labels += 1
    assert labels >= 67
