"""Acceptance suite: the exit criteria, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every check
is exact (the results are symbolic), time bounds are asserted where stated.
"""

import itertools
import time

import pytest

from _oracles import _oracle_verdict, _small_corpus
from openbisim.bisim import (
    Bisimilar, CheckConfig, DistinguishedVerdict, RelationWitness,
    apply_world_move, open_bisim_pi_check, quasi_open_check,
    representative_worlds, validate_witness,
)
from openbisim import corpus
from openbisim.frames import Distinguished, Equivalent, Frame, static_equiv
from openbisim.logic import (
    Sat, check, distinguish, formula_alpha_equiv, parse_formula,
    pretty_formula, subst_formula,
)
from openbisim.lts import barbs
from openbisim.names import NameGen
from openbisim.syntax import make_extended, parse, parse_process, promote
from openbisim.terms import (
    Entailment, Substitution, Var, dy_asym, dy_blind, entails_neq, load_theory,
    parse_term,
)

TH = dy_asym()
THB = dy_blind()
TH_SIGN = load_theory(corpus.path("dy-sign.thy"))
CFG = CheckConfig(recipe_depth=1, max_depth=24)
CFG2 = CheckConfig(recipe_depth=2, max_depth=24)
PI_CFG = CheckConfig(recipe_depth=1, max_depth=20, mode="late-pi")


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def _best_of(fn, runs=5):
    times = []
    out = None
    for _ in range(runs):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, min(times)


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_entailment():
    x, y = Var("x"), Var("y")
    hx, hy = parse_term("hash(x)"), parse_term("hash(y)")
    cases = [
        (set(), x, hx, Entailment.HOLDS),
        (set(), x, hy, Entailment.FAILS),
        ({"y"}, x, hy, Entailment.HOLDS),
    ]
    for names, s, t, want in cases:
        got = entails_neq(names, s, t, TH)  # warm the caches
        assert got is want
        _, dt = _best_of(lambda: entails_neq(names, s, t, TH))
        assert dt < 0.001, f"{dt * 1e3:.3f} ms"
    report(1, "rewriting/entailment reproduces the three examples in < 1 ms each")


# -- 2 -----------------------------------------------------------------------

def F(privates, binds):
    return Frame(
        frozenset(privates),
        Substitution.of({k: parse_term(v) for k, v in binds.items()}),
        tuple(binds),
    )


def test_criterion_2_static_equivalence():
    cases = [
        (F({"m", "n"}, {"v": "m", "w": "n"}),
         F({"m"}, {"v": "m", "w": "hash(m)"}),
         ("hash(v)", "w")),
        (F({"m", "k", "n"}, {"x1": "aenc(m, pk(k))", "x2": "n"}),
         F({"m", "k"}, {"x1": "aenc(m, pk(k))", "x2": "k"}),
         None),
        (F({"m", "k", "n"}, {"x3": "aenc(pair(t, m), pk(k))", "x4": "n"}),
         F({"m", "k"}, {"x3": "aenc(pair(t, m), pk(k))", "x4": "k"}),
         ("fst(adec(x3, x4))", "t")),
    ]
    for a, b, want in cases:
        (verdict, dt) = _best_of(lambda: static_equiv(a, b, TH), runs=1)
        assert dt < 1.0
        if want is None:
            assert isinstance(verdict, Equivalent)
        else:
            assert isinstance(verdict, Distinguished)
            assert (str(verdict.left_recipe), str(verdict.right_recipe)) == want
    report(2, "the three frame pairs give Distinguished(hash(v), w), "
              "Equivalent, Distinguished(fst(adec(x3, x4)), t)")


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_mobility():
    l = parse_process("new z. out(x, pair(z, y)). in(z, w). 0")
    r = parse_process("new z. out(x, pair(z, y)). 0")
    v = quasi_open_check(l, r, TH, CFG)
    assert isinstance(v, DistinguishedVerdict)
    res = distinguish(l, r, TH, CFG)
    fl, fr = res
    assert formula_alpha_equiv(fl, parse_formula("<x!(u)><fst(u)?q>tt"),
                               frozenset({"q"}))
    assert formula_alpha_equiv(fr, parse_formula("[x!(u)][fst(u)?q]ff"),
                               frozenset({"q"}))
    report(3, "mobility pair Distinguished with formulas "
              "<x!(u)><fst(u) q>tt / [x!(u)][fst(u) q]ff up to binder naming")


# -- 4 and 5 -------------------------------------------------------------------

SERVER_A = "new k, r. out(a, pk(k)). in(a, x). out(a, r). 0"
SERVER_B = ("new k, r. out(a, pk(k)). in(a, x). "
            "if x = pk(k) then out(a, aenc(pair(m, r), pk(k))). 0 else out(a, r). 0")
SERVER_C = ("new k, r. out(a, pk(k)). in(a, x). "
            "if x = pk(k) then out(a, aenc(m, pk(k))). 0 else out(a, r). 0")


def test_criterion_4_privacy_positive():
    t0 = time.perf_counter()
    v = quasi_open_check(parse_process(SERVER_A), parse_process(SERVER_B), TH, CFG)
    dt = time.perf_counter() - t0
    assert isinstance(v, Bisimilar)
    assert dt <= 10.0
    assert validate_witness(v.witness, TH, CFG)
    report(4, f"Server A ~ Server B Bisimilar with validated witness in {dt:.1f} s")


def test_criterion_5_privacy_negative():
    a, c = parse_process(SERVER_A), parse_process(SERVER_C)
    v = quasi_open_check(a, c, TH, CFG)
    assert isinstance(v, DistinguishedVerdict)
    fl, fr = distinguish(a, c, TH, CFG)
    assert check(a, fl, TH, CFG) is Sat.SAT
    assert check(c, fl, TH, CFG) is Sat.UNSAT
    attack = parse_formula("<a!(v)><a?v><a!(w)> aenc(m, v) = w")
    assert check(c, attack, TH, CFG) is Sat.SAT
    assert check(a, attack, TH, CFG) is Sat.UNSAT
    report(5, "Server A vs C Distinguished; emitted formula self-checks; the "
              "attack formula is SAT on C and UNSAT on A")


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_excluded_middle():
    a_body = "out(a, r). 0"
    d_body = "out(a, aenc(pair(m, r), pk(k))). 0"
    c_body = f"if x = pk(k) then {d_body} else {a_body}"
    R = parse_process(f"in(a, x). ({c_body}) + in(a, x). {a_body} + in(a, x). {d_body}")
    S = parse_process(f"in(a, x). {a_body} + in(a, x). {d_body}")
    assert isinstance(quasi_open_check(R, S, TH, CFG), DistinguishedVerdict)
    lem = parse_formula(r"<a?x>[a!(u)](x = pk(k) \/ x != pk(k))")
    assert check(R, lem, TH, CFG) is Sat.SAT
    assert check(S, lem, TH, CFG) is Sat.UNSAT
    gR = parse_process(f"new k. out(a, pk(k)). (in(a, x). ({c_body}) + "
                       f"in(a, x). {a_body} + in(a, x). {d_body})")
    gS = parse_process(f"new k. out(a, pk(k)). (in(a, x). {a_body} + in(a, x). {d_body})")
    assert isinstance(quasi_open_check(gR, gS, TH, CFG), Bisimilar)
    report(6, "R vs S Distinguished; excluded-middle formula separates them; "
              "grounded variants Bisimilar")


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_om_formula_suite():
    suite = [
        ("0", "[x != y] tau. 0", "[tau]ff", "x != y => <tau>tt"),
        ("tau. 0", "[x != y] tau. 0", "<tau>tt", "[tau](x != y)"),
        ("tau. 0 + tau. tau. 0",
         "tau. 0 + tau. tau. 0 + tau. [x != y] tau. 0",
         r"[tau]([tau]ff \/ <tau>tt)",
         "<tau>((x != y => <tau>tt) & [tau](x != y))"),
        ("new z. out(x, z). in(x, y). [z != y] tau. 0",
         "new z. out(x, z). in(x, y). tau. 0",
         "[x!(z)][x?(y)][tau](z != y)",
         "<x!(z)><x?(y)><tau>tt"),
    ]
    for l, r, wl, wr in suite:
        fl, fr = distinguish(parse_process(l), parse_process(r), TH, PI_CFG)
        assert formula_alpha_equiv(fl, parse_formula(wl)), pretty_formula(fl)
        assert formula_alpha_equiv(fr, parse_formula(wr)), pretty_formula(fr)
    report(7, "the four distinguishing-formula pairs are reproduced exactly "
              "up to binder naming")


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_open_bisim_positives():
    pairs = [
        ("new z. out(x, z). [x != z] tau. 0", "new z. out(x, z). tau. 0"),
        ("new z. [z != y] tau. 0", "tau. 0"),
    ]
    for l, r in pairs:
        v = open_bisim_pi_check(parse_process(l), parse_process(r), TH, PI_CFG)
        assert isinstance(v, Bisimilar), (l, r)
    report(8, "both open-bisimilarity positives are Bisimilar under the "
              "history-indexed checker")


# -- 9 -----------------------------------------------------------------------

BLIND_R = ("new n. out(a, n). in(a, x). new k. out(a, sign(x, k)). in(a, y). "
           "[y = sign(n, k)] tau. 0")
BLIND_S = ("new n. out(a, n). in(a, x). new k. out(a, sign(x, k)). in(a, y). "
           "[y = sign(n, k)] [x = n] tau. 0")
HASH_L = ("new k. in(a, x). out(a, sign(x, k)). in(a, y). in(a, z). "
          "[y = sign(hash(m), k)] [z = sign(hash(n), k)] [m != n] tau. 0")
HASH_R = "new k. in(a, x). out(a, sign(x, k)). in(a, y). in(a, z). 0"


def test_criterion_9_blind_signatures():
    timings = []
    t0 = time.perf_counter()
    v1 = quasi_open_check(parse_process(BLIND_R), parse_process(BLIND_S), TH_SIGN, CFG)
    timings.append(time.perf_counter() - t0)
    assert isinstance(v1, Bisimilar)

    t0 = time.perf_counter()
    v2 = quasi_open_check(parse_process(BLIND_R), parse_process(BLIND_S), THB, CFG)
    timings.append(time.perf_counter() - t0)
    assert isinstance(v2, DistinguishedVerdict)
    forgery = parse_formula("<a!(u)><a?blind(u, z)><a!(v)><a?unblind(v, z)><tau>tt")
    assert check(parse_process(BLIND_R), forgery, THB, CFG) is Sat.SAT

    t0 = time.perf_counter()
    v3 = quasi_open_check(parse_process(HASH_L), parse_process(HASH_R), THB, CFG)
    timings.append(time.perf_counter() - t0)
    assert isinstance(v3, Bisimilar)
    assert max(timings) <= 30.0, timings
    report(9, "signature pair Bisimilar without the blinding equation, "
              f"Distinguished with it (forgery trace SAT); hash-and-sign "
              f"Bisimilar; slowest check {max(timings):.1f} s")


# -- 10 ----------------------------------------------------------------------

CTX = "new a, b, c. out(x, pk(a)). out(x, pk(b)). out(x, pk(c)). "
P_A = ("[snd(adec(y, c)) = pk(a)] new n. "
       "out(x, aenc(pair(fst(adec(y, c)), pair(n, pk(c))), pk(a))). 0")
P_B = ("[snd(adec(y, c)) = pk(b)] new n. "
       "out(x, aenc(pair(fst(adec(y, c)), pair(n, pk(b))), pk(b))). 0")


def test_criterion_10_fixed_and_broken_servers():
    broken = parse_process(CTX + f"in(x, y). ({P_A})")
    brokenp = parse_process(CTX + f"in(x, y). ({P_B})")
    fixed = parse_process(
        CTX + f"in(x, y). (({P_A}) + [snd(adec(y, c)) != pk(a)] new m. out(x, m). 0)")
    fixedp = parse_process(
        CTX + f"in(x, y). (({P_B}) + [snd(adec(y, c)) != pk(b)] new m. out(x, m). 0)")

    t0 = time.perf_counter()
    v1 = quasi_open_check(fixed, fixedp, TH, CFG2)
    dt1 = time.perf_counter() - t0
    assert isinstance(v1, Bisimilar) and dt1 <= 60.0

    t0 = time.perf_counter()
    v2 = quasi_open_check(broken, brokenp, TH, CFG2)
    dt2 = time.perf_counter() - t0
    assert isinstance(v2, DistinguishedVerdict) and dt2 <= 60.0

    trace = parse_formula("<x!(u)><x!(v)><x!(w)><x?aenc(pair(z, u), w)><x!(s)>tt")
    assert check(broken, trace, TH, CFG2) is Sat.SAT
    assert check(brokenp, trace, TH, CFG2) is Sat.UNSAT
    report(10, f"Fixed servers Bisimilar ({dt1:.1f} s); broken servers "
               f"Distinguished ({dt2:.1f} s) with the five-action trace SAT "
               "on the left only")


# -- 11 ----------------------------------------------------------------------

BASE_PROCESSES = [
    "0", "tau. 0", "out(a, m). 0", "in(a, x). 0",
    "out(a, m). in(a, y). 0", "in(a, x). out(a, x). 0",
    "new z. out(a, z). 0", "tau. tau. 0",
    "out(a, m). 0 | in(b, x). 0", "tau. 0 + out(a, m). 0",
    "new z. out(a, z). in(z, w). 0", "[x != y] tau. 0",
]


def test_criterion_11a_equivalence_and_congruence_battery():
    pairs = [(p, p) for p in BASE_PROCESSES]
    pairs += list(itertools.combinations(BASE_PROCESSES, 2))[:24]
    pairs += [
        (f"0 | {p}", p) for p in BASE_PROCESSES[:6]
    ]
    assert len(pairs) >= 40
    verdicts = {}
    for l, r in pairs:
        vl = type(quasi_open_check(parse_process(l), parse_process(r), TH, CFG)).__name__
        vr = type(quasi_open_check(parse_process(r), parse_process(l), TH, CFG)).__name__
        assert vl == vr, (l, r)
        verdicts[(l, r)] = vl
        if l == r:
            assert vl == "Bisimilar"
    # congruence spot-checks on bisimilar pairs
    contexts = [
        lambda s: f"({s}) | out(c0, d0). 0",
        lambda s: f"in(c0, w0). ({s})",
        lambda s: f"new c1. ({s})",
        lambda s: f"({s}) + tau. 0",
    ]
    bisim_pairs = [(l, r) for (l, r), v in verdicts.items()
                   if v == "Bisimilar" and l != r][:4]
    for l, r in bisim_pairs:
        for ctx in contexts:
            v = quasi_open_check(parse_process(ctx(l)), parse_process(ctx(r)), TH, CFG)
            assert isinstance(v, Bisimilar), (ctx(l), ctx(r))
    # transitivity on sampled triples
    groups = {}
    for (l, r), v in verdicts.items():
        if v == "Bisimilar":
            groups.setdefault(l, set()).add(r)
    for p, qs in groups.items():
        for q in list(qs)[:2]:
            for r in list(groups.get(q, []))[:2]:
                v = quasi_open_check(parse_process(p), parse_process(r), TH, CFG)
                assert isinstance(v, Bisimilar), (p, q, r)
    report("11a", f"equivalence-relation and congruence battery over "
                  f"{len(pairs)} pairs")


def test_criterion_11b_structural_laws():
    p, q, r = "out(a, m). in(a, y). 0", "tau. out(b, n). 0", "in(c, w). 0"
    laws = [
        (f"0 | {p}", p),
        (f"{p} | {q}", f"{q} | {p}"),
        (f"({p} | {q}) | {r}", f"{p} | ({q} | {r})"),
        ("new x. new y. out(a, pair(x, y)). 0", "new y. new x. out(a, pair(x, y)). 0"),
        ("new x. 0", "0"),
    ]
    for l, rr in laws:
        v = quasi_open_check(parse_process(l), parse_process(rr), TH, CFG)
        assert isinstance(v, Bisimilar), (l, rr)
        # barb preservation along the way
        assert barbs(promote(parse_process(l)), TH) == \
            barbs(promote(parse_process(rr)), TH)
    report("11b", "structural laws hold as Bisimilar verdicts with equal barbs")


def test_criterion_11c_hereditariness():
    gen = NameGen()
    samples = [
        ("[x != y] in(a, w). 0", "x != y => <a?q>tt"),
        ("out(a, hash(x)). 0", "<a!(u)> u = hash(x)"),
        ("if x = pk(k) then tau. 0 else out(a, r). 0", "x = pk(k) => <tau>tt"),
        ("out(a, m). 0", "<a!(u)> u = m"),
    ]
    checked = 0
    for src, fsrc in samples:
        ep = promote(parse_process(src))
        ep = make_extended(ep.privates, ep.frame, ep.body, TH, ep.frame_order)
        f = parse_formula(fsrc)
        if check(ep, f, TH, CFG) is not Sat.SAT:
            continue
        moves, _ = representative_worlds((ep,), TH, gen)
        for mv in moves:
            refined = apply_world_move(ep, mv, TH)
            f2 = subst_formula(f, mv.formula_sigma())
            assert check(refined, f2, TH, CFG) is Sat.SAT, (src, fsrc, mv.describe())
            checked += 1
    assert checked >= 3
    report("11c", f"hereditariness held on {checked} sampled refinements")


def test_criterion_11d_all_bisimilar_verdicts_validate():
    validated = 0
    bisim_sources = [
        (SERVER_A, SERVER_B, TH, CFG),
        (BLIND_R, BLIND_S, TH_SIGN, CFG),
        ("0 | out(a, m). 0", "out(a, m). 0", TH, CFG),
        ("new z. out(x, z). [x != z] tau. 0", "new z. out(x, z). tau. 0", TH, CFG),
        ("new x. 0", "0", TH, CFG),
    ]
    for l, r, th, cfg in bisim_sources:
        v = quasi_open_check(parse_process(l), parse_process(r), th, cfg)
        assert isinstance(v, Bisimilar), (l, r)
        assert validate_witness(v.witness, th, cfg), (l, r)
        validated += 1
    report("11d", f"validate_witness passed for {validated}/{validated} "
                  "Bisimilar verdicts")


def test_criterion_11e_witness_mutation():
    v = quasi_open_check(parse_process(SERVER_A), parse_process(SERVER_B), TH, CFG)
    w = v.witness
    flipped = 0
    for drop in range(len(w.pairs)):
        mutated = RelationWitness(
            w.pairs[:drop] + w.pairs[drop + 1:], w.root, w.mode, w.config
        )
        assert not validate_witness(mutated, TH, CFG), f"pair {drop} redundant"
        flipped += 1
    report("11e", f"deleting any of the {flipped} witness pairs flips "
                  "validation to false")


def test_criterion_11f_oracle_agreement():
    agreements = 0
    for l, r in _small_corpus():
        got = type(quasi_open_check(parse_process(l), parse_process(r), TH, CFG)).__name__
        if got == "Unknown":
            continue
        want = _oracle_verdict(l, r)
        assert (got == "Bisimilar") == want, (l, r, got)
        agreements += 1
    assert agreements >= 25
    report("11f", f"verdicts agree with the independent bounded-game oracle "
                  f"on {agreements} crypto-free pairs")
