"""Theory-layer tests: rewriting, unification, freshness, entailment."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from openbisim.terms import (
    App, Entailment, NonTermination, RewriteRule, Substitution, Theory,
    UnknownSymbol, Var, dy_asym, dy_blind, entails_neq, eq_mod, free_vars,
    fresh_for, normalize, parse_term, parse_theory, render_term, subterms,
    unify_mod,
)

TH = dy_asym()
THB = dy_blind()


def T(text):
    return parse_term(text)


# ---------------------------------------------------------------------------
# Independent oracle: exhaustive one-step rewriting to a fixed depth.


def one_step_rewrites(t, th):
    """All terms reachable by a single rule application at any position."""
    out = []
    if isinstance(t, App):
        for rule in th.rules:
            from openbisim.terms import apply_map, match_term
            m = match_term(rule.lhs, t, rule.variables())
            if m is not None:
                out.append(apply_map(rule.rhs, m))
        for i, a in enumerate(t.args):
            for a2 in one_step_rewrites(a, th):
                args = list(t.args)
                args[i] = a2
                out.append(App(t.fn, tuple(args)))
    return out


def brute_normal_forms(t, th, depth=4):
    """Normal forms among all rewrite sequences of length <= depth."""
    frontier = {t}
    seen = {t}
    for _ in range(depth):
        nxt = set()
        for s in frontier:
            for r in one_step_rewrites(s, th):
                if r not in seen:
                    seen.add(r)
                    nxt.add(r)
        if not nxt:
            break
        frontier = nxt
    return {s for s in seen if not one_step_rewrites(s, th)}


# ---------------------------------------------------------------------------
# normalize


def test_normalize_decryption():
    assert normalize(T("adec(aenc(m, pk(k)), k)"), TH) == Var("m")


def test_normalize_variable_is_normal():
    assert normalize(Var("x"), TH) == Var("x")


def test_normalize_returns_a_normal_term_itself():
    th = dy_asym()   # a fresh normal-form table: the rewriting loop runs
    for text in ("x", "pair(m, pk(k))", "aenc(adec(c, k), pk(k2))"):
        t = T(text)
        assert normalize(t, th) is t


def test_normalize_unblind_produces_signature():
    assert normalize(T("unblind(sign(blind(m, n), k), n)"), THB) == T("sign(m, k)")


def test_normalize_reencryption_collapses():
    # failed decryption re-encrypted with the matching public key vanishes
    assert normalize(T("aenc(adec(c, k), pk(k))"), TH) == Var("c")


def test_normalize_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        normalize(T("frob(x)"), TH)


def test_normalize_arity_mismatch():
    with pytest.raises(UnknownSymbol):
        normalize(T("pk(x, y)"), TH)


def test_nontermination_guard():
    looping = Theory(
        name="loop",
        signature={"f": 1, "g": 1},
        rules=(RewriteRule(T("f(X)"), T("g(f(X))")),),  # type: ignore[arg-type]
        rewrite_ceiling=50,
    )
    with pytest.raises(NonTermination):
        normalize(T("f(a)"), looping)


# Each case has its solutions' narrowing variables renamed from ?r20 and
# up (10 or more rule renamings before them), so their positional names
# ?0, ?1, ... change if rules skipped by the head filter stop taking
# their ?r<n> names.
@pytest.mark.parametrize("theory, s, t, want, truncated", [
    ("dy-blind", "unblind(k, k)", "snd(fst(x))",
     ["{x -> pair(pair(?1, unblind(k, k)), ?0)}"], False),
    ("dy-asym", "adec(x, k)", "adec(fst(y), k)",
     ["{k -> ?1, y -> pair(x, ?0)}", "{x -> fst(y)}"], False),
    ("dy-asym", "adec(x, y)", "adec(k, x)",
     ["{k -> aenc(?1, pk(aenc(?1, pk(?0)))), x -> aenc(?1, pk(?0)), y -> ?0}",
      "{k -> aenc(adec(?0, y), pk(?0)), x -> ?0}",
      "{x -> k, y -> k}"], True),
])
def test_unify_mod_narrowing_names_are_pinned(theory, s, t, want, truncated):
    th = dy_blind() if theory == "dy-blind" else dy_asym()
    got = unify_mod(T(s), T(t), th)
    assert [repr(sub) for sub in got] == want
    assert got.truncated is truncated


def test_normalize_matches_brute_force_oracle():
    cases = [
        "adec(aenc(y, pk(k)), k)",
        "fst(pair(adec(aenc(m, pk(k)), k), n))",
        "snd(pair(m, fst(pair(n, k))))",
        "aenc(adec(aenc(m, pk(k)), k), pk(k))",
        "hash(fst(pair(m, n)))",
    ]
    for text in cases:
        t = T(text)
        nfs = brute_normal_forms(t, TH)
        assert len(nfs) == 1, f"not confluent at depth 4: {text}"
        assert normalize(t, TH) == next(iter(nfs))


# ---------------------------------------------------------------------------
# eq_mod


def test_eq_mod_projection():
    assert eq_mod(T("fst(pair(m, n))"), Var("m"), TH)


def test_eq_mod_reflexive():
    assert eq_mod(Var("m"), Var("m"), TH)


def test_eq_mod_oracle_confirmed():
    # expected value computed by the brute-force rewriting oracle above
    s, t = T("adec(aenc(y, pk(k)), k)"), Var("y")
    assert brute_normal_forms(s, TH) == {t}
    assert eq_mod(s, t, TH)


def test_eq_mod_distinct_normal_forms():
    assert not eq_mod(T("hash(m)"), T("hash(n)"), TH)


# ---------------------------------------------------------------------------
# unify_mod


def test_unify_simple_binding():
    u = unify_mod(Var("x"), T("hash(y)"), TH)
    assert list(u) == [Substitution.of({"x": T("hash(y)")})]
    assert not u.truncated


def test_unify_occurs_check():
    u = unify_mod(Var("x"), T("hash(x)"), TH)
    assert not list(u)
    assert not u.truncated


def brute_force_unifiers(s, t, th):
    """Enumerate substitutions assigning subterms of s and t to their free
    variables; keep those equating s and t modulo the theory."""
    pool = list(dict.fromkeys(itertools.chain(subterms(s), subterms(t))))
    out = []
    fvs = sorted(free_vars(s) | free_vars(t))
    for values in itertools.product(pool, repeat=len(fvs)):
        try:
            sub = Substitution.of(dict(zip(fvs, values)))
        except ValueError:
            continue
        if eq_mod(sub(s), sub(t), th):
            out.append(sub)
    return out


def test_unify_mgu_confirmed_by_enumeration():
    s, t = T("aenc(z, pk(k))"), T("aenc(pair(a, b), pk(k))")
    u = list(unify_mod(s, t, TH))
    assert u == [Substitution.of({"z": T("pair(a, b)")})]
    brute = brute_force_unifiers(s, t, TH)
    assert any(b == u[0] for b in brute)
    # every brute-force unifier is an instance of the returned mgu set
    for b in brute:
        assert eq_mod(b(s), b(t), TH)


def test_unifier_soundness():
    pairs = [
        (T("adec(v, w)"), Var("m")),
        (T("fst(p)"), Var("a")),
        (T("snd(adec(y, c))"), T("pk(a)")),
        (T("pair(x, y)"), T("pair(hash(z), z)")),
    ]
    for s, t in pairs:
        for sub in unify_mod(s, t, TH):
            assert eq_mod(sub(s), sub(t), TH)


def test_unify_truncation_flag():
    shallow = Theory(
        name="shallow",
        signature=dict(TH.signature),
        rules=TH.rules,
        unification_bound=0,
    )
    u = unify_mod(T("snd(adec(y, c))"), T("pk(a)"), shallow)
    assert not list(u)
    assert u.truncated


# ---------------------------------------------------------------------------
# fresh_for / entails_neq


def test_fresh_for_empty_names():
    assert fresh_for(Substitution.of({"x": T("hash(y)")}), set())


def test_fresh_for_range_violation():
    assert not fresh_for(Substitution.of({"x": T("hash(y)")}), {"y"})


def test_fresh_for_domain_violation():
    assert not fresh_for(Substitution.of({"x": Var("m")}), {"x"})


def test_fresh_for_identity():
    for names in (set(), {"a"}, {"a", "b", "c"}):
        assert fresh_for(Substitution.identity(), names)


def test_entailment_occurs_check_holds():
    assert entails_neq(set(), Var("x"), T("hash(x)"), TH) is Entailment.HOLDS


def test_entailment_open_fails():
    assert entails_neq(set(), Var("x"), T("hash(y)"), TH) is Entailment.FAILS


def test_entailment_private_name_holds():
    assert entails_neq({"y"}, Var("x"), T("hash(y)"), TH) is Entailment.HOLDS


def test_entailment_truncation_is_unknown():
    shallow = Theory(
        name="shallow",
        signature=dict(TH.signature),
        rules=TH.rules,
        unification_bound=0,
    )
    r = entails_neq(set(), T("snd(adec(y, c))"), T("pk(a)"), shallow)
    assert r is Entailment.UNKNOWN


# ---------------------------------------------------------------------------
# Property tests

_names = st.sampled_from(["a", "b", "k", "m", "n", "x", "y", "z"])


def _terms(depth):
    if depth == 0:
        return _names.map(Var)
    sub = _terms(depth - 1)
    return st.one_of(
        _names.map(Var),
        st.builds(lambda a: App("pk", (a,)), sub),
        st.builds(lambda a: App("hash", (a,)), sub),
        st.builds(lambda a: App("fst", (a,)), sub),
        st.builds(lambda a: App("snd", (a,)), sub),
        st.builds(lambda a, b: App("pair", (a, b)), sub, sub),
        st.builds(lambda a, b: App("aenc", (a, b)), sub, sub),
        st.builds(lambda a, b: App("adec", (a, b)), sub, sub),
    )


terms3 = _terms(3)


@given(terms3)
@settings(max_examples=150, deadline=None)
def test_normalize_idempotent(t):
    nf = normalize(t, TH)
    assert normalize(nf, TH) == nf


@given(terms3)
@settings(max_examples=100, deadline=None)
def test_rule_instances_equal(t):
    for rule in TH.rules:
        fvs = sorted(rule.variables())
        sub = Substitution.of({v: t for v in fvs})
        assert eq_mod(sub(rule.lhs), sub(rule.rhs), TH)


@given(terms3, terms3)
@settings(max_examples=60, deadline=None)
def test_returned_unifiers_are_sound(s, t):
    for sub in unify_mod(s, t, TH):
        assert eq_mod(sub(s), sub(t), TH)


@given(terms3, terms3, st.sets(_names, max_size=3), st.sets(_names, max_size=3))
@settings(max_examples=60, deadline=None)
def test_entailment_monotone_in_names(s, t, names, extra):
    small, big = set(names), set(names) | set(extra)
    if entails_neq(small, s, t, TH) is Entailment.HOLDS:
        assert entails_neq(big, s, t, TH) is Entailment.HOLDS


@given(terms3, st.dictionaries(_names, _terms(1), max_size=2),
       st.dictionaries(_names, _terms(1), max_size=2))
@settings(max_examples=60, deadline=None)
def test_substitution_composition_law(t, m1, m2):
    try:
        s1, s2 = Substitution.of(m1), Substitution.of(m2)
    except ValueError:
        return
    assert s1.compose(s2)(t) == s2(s1(t))


# ---------------------------------------------------------------------------
# Theory files


def test_parse_theory_roundtrip():
    th = parse_theory(
        """
        # toy
        sym f/2
        sym g/1
        sym c/0
        rule f(X, g(Y)) -> Y
        rule g(c) -> c
        """,
        name="toy",
    )
    assert th.signature == {"f": 2, "g": 1, "c": 0}
    assert normalize(T("f(x, g(y))"), th) == Var("y")
    assert normalize(th.parse("g(c)"), th) == App("c", ())


def test_parse_theory_rejects_extra_rhs_vars():
    with pytest.raises(Exception):
        parse_theory("sym f/1\nrule f(X) -> Y\n")


def test_bundled_theory_metadata():
    assert TH.subterm_convergent and TH.saturation_complete and TH.size_decreasing
    assert not THB.subterm_convergent
    assert THB.saturation_complete and THB.size_decreasing


def test_render_parse_roundtrip():
    for text in ["x", "pk(k)", "pair(hash(a), adec(b, c))"]:
        assert render_term(parse_term(text)) == text.replace(" ", "").replace(",", ", ")
