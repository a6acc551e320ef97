"""Guard-rail tests: self-check enforcement, strategy-leaf re-checks, and
corpus shuffling."""

import os
import subprocess
import sys

import pytest

import openbisim.logic as logic_mod
from openbisim.bisim import (
    CapabilityLeaf, CheckConfig, DistinguishedVerdict, MoveNode, RefineNode,
    StaticLeaf, quasi_open_check,
)
from openbisim.lts import early_transitions
from openbisim.logic import Bottom, SelfCheckFailed, Top, distinguish
from openbisim.names import NameGen
from openbisim.syntax import parse_process
from openbisim.terms import dy_asym, eq_mod

TH = dy_asym()
CFG = CheckConfig(recipe_depth=1, max_depth=24)


def test_distinguish_never_returns_unchecked_formulas(monkeypatch):
    # sabotage the candidate generator: distinguish must refuse to return
    # garbage rather than emit it silently
    monkeypatch.setattr(
        logic_mod, "_candidate_pairs",
        lambda s, th, cfg: iter([(Top(), Top()), (Bottom(), Bottom())]),
    )
    with pytest.raises(SelfCheckFailed):
        distinguish(parse_process("tau. 0"), parse_process("0"), TH, CFG)


def _leaves(s):
    if isinstance(s, (StaticLeaf, CapabilityLeaf)):
        yield s
    elif isinstance(s, RefineNode):
        yield from _leaves(s.child)
    elif isinstance(s, MoveNode):
        for c in s.children:
            yield from _leaves(c)


DISTINGUISHED_PAIRS = [
    ("new z. out(x, pair(z, y)). in(z, w). 0", "new z. out(x, pair(z, y)). 0"),
    ("new x. out(a, aenc(x, z)). 0", "new x. out(a, aenc(pair(x, y), z)). 0"),
    ("tau. 0", "0"),
    ("out(a, m). 0", "out(b, m). 0"),
]


def test_strategy_leaves_recheck_independently():
    gen = NameGen()
    checked = 0
    for l, r in DISTINGUISHED_PAIRS:
        v = quasi_open_check(parse_process(l), parse_process(r), TH, CFG)
        assert isinstance(v, DistinguishedVerdict)
        for leaf in _leaves(v.strategy):
            if isinstance(leaf, StaticLeaf):
                a, b = leaf.node
                ea = eq_mod(a.frame(leaf.left_recipe), a.frame(leaf.right_recipe), TH)
                eb = eq_mod(b.frame(leaf.left_recipe), b.frame(leaf.right_recipe), TH)
                assert ea != eb
                assert (leaf.equal_on == "a") == ea
                checked += 1
            else:
                a, b = leaf.node
                mover, other = (a, b) if leaf.side == 0 else (b, a)
                kind = leaf.label.kind
                ts_m = early_transitions(mover, TH, gen)
                ts_o = early_transitions(other, TH, gen)

                def enabled(ts, ep):
                    if kind == "tau":
                        return any(t.label.kind == "tau" for t in ts.transitions)
                    if kind == "out":
                        want = ep.frame(leaf.label.channel)
                        return any(
                            t.label.kind == "out"
                            and eq_mod(want, t.raw_channel, TH)
                            for t in ts.transitions
                        )
                    want = ep.frame(leaf.label.channel)
                    return any(
                        eq_mod(want, s.raw_channel, TH) for s in ts.inputs
                    )

                assert enabled(ts_m, mover), leaf
                assert not enabled(ts_o, other), leaf
                checked += 1
    assert checked >= len(DISTINGUISHED_PAIRS)


def test_corpus_seed_shuffles_deterministically():
    env = dict(os.environ, OPENBISIM_SEED="7")
    cmd = [sys.executable, "-m", "openbisim.cli", "corpus", "--only", "om"]

    def rows(out):
        return [line.rsplit(" ", 1)[0] for line in out.splitlines()]  # drop times

    a = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    b = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert a.returncode == 0 and rows(a.stdout) == rows(b.stdout)
    plain = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert plain.returncode == 0
    assert sorted(rows(plain.stdout)) == sorted(rows(a.stdout))
