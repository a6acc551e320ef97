"""What the game allocates per explored world: one free-name set per content
among the expanded nodes, parts of a successor reused from its parent,
slotted state records, and no reference cycles left to the collector."""

import gc

import pytest

from openbisim import bisim, corpus, logic
from openbisim.bisim import (
    Bisimilar, CheckConfig, WorldMove, _EarlyGame, apply_world_move,
    open_bisim_pi_check, quasi_open_check, validate_witness,
)
from openbisim.lts import InputSchema, Label, Transition, TransitionSet, early_transitions
from openbisim.syntax import (
    ExtendedProcess, _nodes, _with_frame, make_extended, parse, parse_process,
)
from openbisim.terms import Substitution, Var, load_theory, parse_term

ENTRIES = {e.name: e for e in corpus.ENTRIES}


def _job(name):
    """The parsed inputs, theory and configuration of a corpus entry."""
    e = ENTRIES[name]
    cfg = CheckConfig(recipe_depth=e.recipe_depth, max_depth=e.max_depth,
                      mode="late-pi" if e.kind == "bisim-pi" else "early-applied")
    right = parse(corpus.read(e.right)) if e.right else None
    formula = logic.parse_formula(corpus.read(e.formula)) if e.formula else None
    return parse(corpus.read(e.left)), right, formula, load_theory(corpus.path(e.theory)), cfg


def test_expanded_bodies_hold_one_name_set_per_content(monkeypatch):
    expanded = []
    expand = _EarlyGame._expand

    def record(game, node, replay=None):
        expanded.append(node)
        return expand(game, node, replay)

    monkeypatch.setattr(_EarlyGame, "_expand", record)
    left, right, _, th, cfg = _job("fixed-servers")
    assert isinstance(quasi_open_check(left, right, th, cfg), Bisimilar)
    assert len(expanded) > 100
    by_content = {}
    for node in expanded:
        for body in (node.a.body, node.b.body):
            for q in _nodes(body):
                by_content.setdefault(q._fv, set()).add(id(q._fv))
    assert len(by_content) > 10
    assert all(len(ids) == 1 for ids in by_content.values())


def test_with_frame_keeps_the_given_privates_and_order():
    th = load_theory(corpus.path("dy-asym.thy"))
    frame = Substitution.of({"w": parse_term("pk(k)"), "v": parse_term("n")})
    body = parse_process("out(c, m). 0")
    privates, order = ("k", "m"), ("w", "v")
    ep = _with_frame(privates, frame, body, th, order)
    assert ep.privates is privates and ep.frame_order is order
    # a private name no part uses is dropped, and a frame variable the frame
    # lacks is left out of the order
    dropped = _with_frame(("k", "z", "m"), frame, body, th, ("w", "u", "v"))
    assert dropped.privates == privates and dropped.frame_order == order


def test_world_move_that_touches_no_frame_value_keeps_the_frame():
    th = load_theory(corpus.path("dy-asym.thy"))
    ep = make_extended(("k",), Substitution.of({"w": parse_term("pk(k)")}),
                       parse_process("[x = a] out(c, x). 0"), th)
    untouched = apply_world_move(ep, WorldMove("subst", Substitution.of({"x": Var("a")})), th)
    assert untouched.frame is ep.frame and untouched.body != ep.body
    ep2 = make_extended(("k",), Substitution.of({"w": parse_term("pair(k, x)")}),
                        parse_process("out(c, x). 0"), th)
    touched = apply_world_move(ep2, WorldMove("subst", Substitution.of({"x": Var("a")})), th)
    assert touched.frame == Substitution.of({"w": parse_term("pair(k, a)")})


def test_state_records_are_slotted():
    th = load_theory(corpus.path("dy-asym.thy"))
    ep = make_extended(("k",), Substitution.identity(),
                       parse_process("out(c, k). 0 | in(c, y). 0"), th)
    ts = early_transitions(ep, th)
    records = [ep, ts, ts.transitions[0], ts.transitions[0].label, ts.inputs[0]]
    assert [type(r) for r in records] == [
        ExtendedProcess, TransitionSet, Transition, Label, InputSchema]
    for r in records:
        assert not hasattr(r, "__dict__"), type(r).__name__


def _fixed_servers(left, right, _, th, cfg):
    verdict = quasi_open_check(left, right, th, cfg)
    assert validate_witness(verdict.witness, th, cfg)


def _broken_servers(left, right, _, th, cfg):
    assert isinstance(logic.distinguish(left, right, th, cfg), tuple)


def _lem_holds_on_r(left, _, formula, th, cfg):
    assert logic.check(left, formula, th, cfg) is logic.Sat.SAT


def _om_outin(left, right, _, th, cfg):
    assert open_bisim_pi_check(left, right, th, cfg)


@pytest.mark.parametrize("name, run", [
    ("fixed-servers", _fixed_servers), ("broken-servers", _broken_servers),
    ("lem-holds-on-r", _lem_holds_on_r), ("om-outin", _om_outin),
])
def test_a_check_leaves_no_cyclic_garbage(name, run, monkeypatch):
    # validation in this process: a forked worker's garbage is not counted
    monkeypatch.setattr(bisim, "_usable_cpus", lambda pairs: 1)
    job = _job(name)
    gc.collect()
    gc.disable()
    try:
        run(*job)
        left_behind = gc.collect()
    finally:
        gc.enable()
    assert left_behind == 0
