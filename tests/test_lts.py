"""LTS tests: early applied-pi transitions, barbs, histories, late pi LTS."""

import itertools

import pytest
from test_golden import PI_NAMES, _Choices, _pi_process

from openbisim.bisim import pi_worlds
from openbisim.lts import (
    History, NotPiFragment, ReplicationUnbounded, barbs, early_transitions,
    history_entails_neq, late_transitions, respects,
)
from openbisim.names import NameGen
from openbisim.syntax import (
    Choice, Deadlock, ExtendedProcess, Match, Mismatch, New, Parallel, Process,
    Receive, Send, TauPrefix, alpha_equiv, bound_names, free_vars, parse,
    parse_process, pretty, promote, substitute,
)
from openbisim.terms import Substitution, Var, dy_asym, normalize, parse_term

TH = dy_asym()

# the seeded shapes of the pinned pi pairs: nested restrictions, bound
# outputs under parallel composition, close-communications
_SEEDED = [_pi_process(_Choices(seed), 3, PI_NAMES, itertools.count())
           for seed in range(300)]


def EP(src):
    return promote(parse(src)) if not src.strip().startswith(("{", "new")) else _ep(src)


def _ep(src):
    p = parse(src)
    return p if isinstance(p, ExtendedProcess) else promote(p)


# ---------------------------------------------------------------------------
# Early transitions


def test_mismatch_under_restriction_enables_input():
    # nu y. [x != hash(y)] in(z, w). 0  has an input transition on z
    ts = early_transitions(_ep("new y. [x != hash(y)] in(z, w). 0"), TH)
    assert [str(s.channel) for s in ts.inputs] == ["z"]
    assert not ts.unknown


def test_mismatch_without_evidence_blocks():
    ts = early_transitions(_ep("[x != hash(y)] in(z, w). 0"), TH)
    assert not ts.inputs and not ts.transitions
    assert not ts.unknown  # FAILS is definite, not unknown


def test_alias_input_channel_is_recipe():
    ts = early_transitions(_ep("new m. {w = pair(m, n)} | in(m, x). 0"), TH)
    assert [str(s.channel) for s in ts.inputs] == ["fst(w)"]


def test_deadlock_has_no_transitions():
    ts = early_transitions(_ep("0"), TH)
    assert not ts.transitions and not ts.inputs


def test_close_communication_on_private_channel():
    # k : nu n. out(a, aenc(n, pk(k))). in(n, x) | in(a, w). out(adec(w, k), a)
    ep = _ep("new n. out(a, aenc(n, pk(k))). in(n, x). 0 | in(a, w). out(adec(w, k), a). 0")
    ts = early_transitions(ep, TH)
    taus = [t for t in ts.transitions if t.label.kind == "tau"]
    assert len(taus) == 1
    target = taus[0].target
    expected = parse_process("new n. (in(n, x). 0 | out(n, a). 0)")
    assert alpha_equiv(target.body, expected)
    assert target.frame.is_identity()


def test_output_extends_frame_and_keeps_privates():
    ep = _ep("new n. out(a, aenc(n, pk(k))). in(n, x). 0")
    ts = early_transitions(ep, TH)
    outs = [t for t in ts.transitions if t.label.kind == "out"]
    assert len(outs) == 1
    t = outs[0]
    assert str(t.label.channel) == "a"
    u = t.label.binder
    tgt = t.target
    assert tgt.frame.get(u) is not None
    assert len(tgt.privates) == 1
    n = tgt.privates[0]
    assert tgt.frame.get(u) == parse_term(f"aenc({n}, pk(k))")


def test_private_channel_output_is_unobservable():
    ts = early_transitions(_ep("new n. out(n, m). 0"), TH)
    assert not ts.transitions
    assert ts.dropped_channels


def test_input_instantiation_applies_frame_recipe():
    ep = _ep("new k. {u = pk(k)} | in(a, x). [x = pk(k)] out(a, x). 0")
    ts = early_transitions(ep, TH)
    [schema] = ts.inputs
    target = schema.instantiate(Var("u"))
    # [pk(k) = pk(k)] guard survives with the frame image substituted
    guards = [g for g in _all_guards(target.body)]
    assert guards and all(l == r for (l, r) in guards)


def _all_guards(p):
    if isinstance(p, (Match, Mismatch)):
        yield (p.left, p.right)
        yield from _all_guards(p.continuation)
    elif hasattr(p, "continuation"):
        yield from _all_guards(p.continuation)
    elif isinstance(p, (Parallel,)):
        yield from _all_guards(p.left)
        yield from _all_guards(p.right)


def test_result_frames_idempotent_and_normal():
    ep = _ep("new k. out(a, aenc(m, pk(k))). out(a, adec(aenc(s, pk(k)), k)). 0")
    seen = [ep]
    frontier = [ep]
    for _ in range(3):
        nxt = []
        for state in frontier:
            ts = early_transitions(state, TH)
            for t in ts.transitions:
                assert t.target.frame.is_idempotent()
                for _, term in t.target.frame.bindings:
                    assert normalize(term, TH) == term
                nxt.append(t.target)
        frontier = nxt
        seen += nxt


def test_environment_monotonicity():
    # transitions enabled under some private names stay enabled under more
    cases = [
        "[x != hash(y)] in(z, w). 0",
        "new y. [x != hash(y)] in(z, w). 0",
        "out(a, m). 0",
    ]
    for src in cases:
        ep = _ep(src)
        small = early_transitions(ep, TH)
        more = tuple(dict.fromkeys(ep.privates + ("y", "q")))
        big = early_transitions(ExtendedProcess(more, ep.frame, ep.body), TH)
        small_labels = {t.label.rendered() for t in small.transitions} | {
            str(s.channel) for s in small.inputs
        }
        big_labels = {t.label.rendered() for t in big.transitions} | {
            str(s.channel) for s in big.inputs
        }

        def strip(labels):
            return {l.split("!(")[0] for l in labels}

        assert strip(small_labels) <= strip(big_labels)


def test_replication_requires_budget():
    ep = _ep("rep in(a, x). 0")
    with pytest.raises(ReplicationUnbounded):
        early_transitions(ep, TH)
    ts = early_transitions(ep, TH, allow_replication=True)
    assert ts.inputs


def test_bound_label_names_fresh():
    ep = _ep("new n. out(a, n). 0")
    ts = early_transitions(ep, TH)
    [t] = ts.transitions
    assert t.label.binder not in {"a", "n", "x"}


# ---------------------------------------------------------------------------
# Barbs


def test_barbs():
    assert barbs(_ep("out(a, m). 0"), TH) == {Var("a")}
    assert barbs(_ep("new m. {w = pair(m, n)} | in(m, x). 0"), TH) == {
        parse_term("fst(w)")
    }
    assert barbs(_ep("0"), TH) == frozenset()


# ---------------------------------------------------------------------------
# Histories


def test_respects_paper_examples():
    s = Substitution.of({"x": Var("z")})
    assert not respects(s, History.inputs_for("x").output("z"))
    assert respects(s, History().output("z").input(Var("x")))
    assert respects(Substitution.identity(), History.inputs_for("a", "b"))


def test_history_entailment():
    assert history_entails_neq(History.inputs_for("x").output("z"), Var("x"), Var("z"))
    assert not history_entails_neq(History.inputs_for("x", "y"), Var("x"), Var("y"))
    assert not history_entails_neq(History.inputs_for("x"), Var("x"), Var("x"))
    # two extruded names are永distinct
    assert history_entails_neq(History().output("a").output("b"), Var("a"), Var("b"))


def test_history_distinct_outputs():
    with pytest.raises(ValueError):
        History().output("a").output("a")


# ---------------------------------------------------------------------------
# Late transitions


def L(h, src):
    return late_transitions(h, parse_process(src), TH)


def test_late_mismatch_resolved_by_history():
    ts = L(History.inputs_for("x").output("z"), "[x != z] tau. 0")
    assert [(t.label.rendered(), pretty(t.target)) for t in ts] == [("tau", "0")]


def test_late_res_appends_history():
    ts = L(History.inputs_for("x"), "new z. [x != z] tau. 0")
    assert len(ts) == 1
    assert ts[0].label.kind == "tau"
    assert isinstance(ts[0].target, New)


def test_late_two_inputs_blocked():
    assert L(History.inputs_for("x", "y"), "[x != y] tau. 0") == []


def test_late_open_rule():
    ts = L(History.inputs_for("x"), "new z. out(x, z). 0")
    assert len(ts) == 1
    assert ts[0].label.kind == "out"
    assert str(ts[0].label.channel) == "x"


def test_late_rejects_theory_symbols():
    with pytest.raises(NotPiFragment):
        L(History(), "out(a, hash(x)). 0")


def test_late_step_keeps_a_dead_restriction():
    # the late system puts every restriction back; PI_DIGESTS[17] in
    # test_golden.py (and 19 and 29) moves when it drops one
    h = History.inputs_for("a", "x")
    [t] = L(h, "new z. tau. out(a, x). 0")
    assert (t.label.kind, pretty(t.target)) == ("tau", "new z#1. out(a, x). 0")


def test_early_step_drops_a_dead_restriction():
    # the early system drops a restriction whose name the residual lost;
    # no digest of test_golden.py moves when it keeps one (the hash-and-sign
    # digest included), so this case is the only pin of that policy
    ts = early_transitions(_ep("in(b, y). 0 | new z. tau. out(a, x). 0"), TH)
    [t] = [t for t in ts.transitions if t.label.kind == "tau"]
    assert pretty(t.target.body) == "in(b, y). 0 | out(a, x). 0"
    assert t.target.privates == ()


def _label(t, sub=Substitution.identity()):
    """What a late transition offers an observer, its binder left out."""
    lab = t.label
    return (lab.kind, None if lab.channel is None else sub(lab.channel),
            None if lab.payload is None else sub(lab.payload))


def test_late_transitions_survive_world_moves():
    # the paper's monotonicity: no respectful substitution and no extra
    # name distinction disables a transition previously enabled
    moves = 0
    for p in map(parse_process, _SEEDED):
        h = History.inputs_for(*sorted(free_vars(p)))
        gen = NameGen()
        gen.reserve(free_vars(p) | bound_names(p))
        enabled = late_transitions(h, p, TH, gen)
        for mv, h2 in pi_worlds(h, (p,), gen):
            moves += 1
            after = {_label(t) for t in late_transitions(h2, substitute(p, mv.sigma), TH, gen)}
            for t in enabled:
                assert _label(t, mv.sigma) in after, (pretty(p), mv.describe())
    assert moves >= 400


# ---------------------------------------------------------------------------
# Agreement with the classical late LTS on grounding histories


def classical_late(p: Process, gen: NameGen):
    """Independent implementation of the classical late pi LTS with mismatch,
    where free variables are treated as distinct constants."""
    if isinstance(p, Deadlock):
        return []
    if isinstance(p, TauPrefix):
        return [("tau", None, None, None, p.continuation)]
    if isinstance(p, Send):
        return [("free-out", p.channel, p.payload, None, p.continuation)]
    if isinstance(p, Receive):
        b = gen.fresh(p.binder)
        res = substitute(p.continuation, Substitution.of({p.binder: Var(b)}))
        return [("late-in", p.channel, None, b, res)]
    if isinstance(p, Match):
        return classical_late(p.continuation, gen) if p.left == p.right else []
    if isinstance(p, Mismatch):
        return classical_late(p.continuation, gen) if p.left != p.right else []
    if isinstance(p, New):
        b = gen.fresh(p.binder)
        cont = substitute(p.continuation, Substitution.of({p.binder: Var(b)}))
        out = []
        for kind, ch, pay, binder, tgt in classical_late(cont, gen):
            if kind == "free-out" and pay == Var(b):
                if ch == Var(b):
                    continue
                out.append(("bound-out", ch, None, b, tgt))
                continue
            mentioned = set()
            if ch is not None:
                mentioned |= {ch.name}
            if pay is not None:
                mentioned |= {pay.name}
            if b in mentioned:
                continue
            out.append((kind, ch, pay, binder, New(b, tgt)))
        return out
    if isinstance(p, Parallel):
        import openbisim.syntax as syn
        left = classical_late(p.left, gen)
        right = classical_late(p.right, gen)
        out = []
        for kind, ch, pay, binder, tgt in left:
            if binder is not None and binder in syn.free_vars(p.right):
                continue
            out.append((kind, ch, pay, binder, Parallel(tgt, p.right)))
        for kind, ch, pay, binder, tgt in right:
            if binder is not None and binder in syn.free_vars(p.left):
                continue
            out.append((kind, ch, pay, binder, Parallel(p.left, tgt)))
        for (ok, och, opay, ob, otgt) in left:
            for (ik, ich, _, ib, itgt) in right:
                if ik == "late-in" and och == ich and ok in ("free-out", "bound-out"):
                    if ok == "bound-out":
                        body = Parallel(otgt, substitute(itgt, Substitution.of({ib: Var(ob)})))
                        out.append(("tau", None, None, None, New(ob, body)))
                    else:
                        out.append(("tau", None, None, None,
                                    Parallel(otgt, substitute(itgt, Substitution.of({ib: opay})))))
        for (ok, och, opay, ob, otgt) in right:
            for (ik, ich, _, ib, itgt) in left:
                if ik == "late-in" and och == ich and ok in ("free-out", "bound-out"):
                    if ok == "bound-out":
                        body = Parallel(substitute(itgt, Substitution.of({ib: Var(ob)})), otgt)
                        out.append(("tau", None, None, None, New(ob, body)))
                    else:
                        out.append(("tau", None, None, None,
                                    Parallel(substitute(itgt, Substitution.of({ib: opay})), otgt)))
        return out
    if isinstance(p, Choice):
        return classical_late(p.left, gen) + classical_late(p.right, gen)
    raise TypeError(p)


def _grounding_corpus():
    xs, ys = ["x", "y"], ["y", "z"]
    atoms = []
    for c, v in itertools.product(xs, ys):
        atoms.append(f"out({c}, {v}). 0")
        atoms.append(f"in({c}, w). 0")
        atoms.append(f"[{c} = {v}] tau. 0")
        atoms.append(f"[{c} != {v}] tau. 0")
    combos = []
    for a, b in itertools.islice(itertools.combinations(atoms, 2), 16):
        combos.append(f"({a}) | ({b})")
        combos.append(f"({a}) + ({b})")
    hand_written = (atoms + combos + [
        "new z. out(x, z). [x != z] tau. 0",
        "new a. (out(a, x). 0 | in(a, w). tau. 0)",
    ])[:40]
    return hand_written + _SEEDED


def test_late_agrees_with_classical_on_grounded_processes():
    corpus = _grounding_corpus()
    assert len(corpus) >= 330
    for src in corpus:
        p = parse_process(src)
        fv = sorted(__import__("openbisim.syntax", fromlist=["free_vars"]).free_vars(p))
        h = History()
        for v in fv:
            h = h.output(v)  # grounding history: every free var extruded
        ours = late_transitions(h, p, TH, gen=NameGen())
        classic = classical_late(p, NameGen())
        ours_sig = sorted(
            (t.label.kind, str(t.label.channel), str(t.label.payload), pretty(t.target))
            for t in ours
        )
        # the oracle's bound output is the kind "out" of an lts.Label
        classic_sig = sorted(
            ("out" if k == "bound-out" else k, str(ch), str(pay), pretty(tgt))
            for k, ch, pay, _, tgt in classic
        )
        assert ours_sig == classic_sig, src


def test_replication_self_communication():
    # Rep-close: two copies of a replicated process interact
    ep = _ep("rep (out(a, m). 0 + in(a, x). out(b, x). 0)")
    ts = early_transitions(ep, TH, allow_replication=True)
    taus = [t for t in ts.transitions if t.label.kind == "tau"]
    assert taus, "replication self-communication missing"
    # the residual keeps the replicated process available
    assert any("rep" in pretty(t.target.body) for t in taus)
