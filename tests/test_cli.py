"""Command-line behavior: exit codes, determinism, emit/validate round trips."""

import os
import subprocess
import sys

import pytest

from openbisim.corpus import path as corpus_path


def run(args, tmp_path=None):
    proc = subprocess.run(
        [sys.executable, "-m", "openbisim.cli", *args],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


THY = corpus_path("dy-asym.thy")
THYB = corpus_path("dy-blind.thy")


def test_check_bisim_identity_exit_zero():
    code, out, _ = run(["check-bisim", corpus_path("server_a.pi"),
                        corpus_path("server_a.pi"), THY, "--recipe-depth", "1"])
    assert code == 0
    assert "bisimilar" in out


def test_check_bisim_distinguished_exit_one():
    code, out, _ = run(["check-bisim", corpus_path("mobility_l.pi"),
                        corpus_path("mobility_r.pi"), THY, "--recipe-depth", "1"])
    assert code == 1
    assert "distinguished" in out


def test_check_static_verdicts(tmp_path):
    a = tmp_path / "a.pi"
    b = tmp_path / "b.pi"
    a.write_text("new m, n. {v = m, w = n}\n")
    b.write_text("new m. {v = m, w = hash(m)}\n")
    code, out, _ = run(["check-static", str(a), str(b), THY])
    assert code == 1
    assert "hash(v)" in out and "w" in out
    code2, out2, _ = run(["check-static", str(a), str(a), THY])
    assert code2 == 0 and "equivalent" in out2


def test_model_check_exit_codes():
    code, _, _ = run(["model-check", corpus_path("server_c.pi"),
                      corpus_path("attack_server.fm"), THY])
    assert code == 0
    code2, _, _ = run(["model-check", corpus_path("server_a.pi"),
                       corpus_path("attack_server.fm"), THY])
    assert code2 == 1


def test_distinguish_prints_formulas():
    code, out, _ = run(["distinguish", corpus_path("om_tau.pi"),
                        corpus_path("om_guarded_tau.pi"), THY, "--late-pi",
                        "--recipe-depth", "1"])
    assert code == 0
    assert "left-biased" in out and "<tau>tt" in out


def test_trace_output():
    code, out, _ = run(["trace", corpus_path("server_a.pi"), THY, "--depth", "2"])
    assert code == 0
    assert "--a!(" in out


# Identifiers may hold `#`, as generated names do: the names the checker
# mints avoid those of its input

def test_model_check_mints_no_name_of_the_process(tmp_path):
    p, f = tmp_path / "p.pi", tmp_path / "f.fm"
    p.write_text("out(a, b). out(a, v#1). 0\n")
    f.write_text("<a!(x)><a!(y)> x = y\n")
    # a frame variable minted as v#1 would equate the two outputs
    assert run(["model-check", str(p), str(f), THY])[:2] == (1, "unsat\n")


def test_trace_mints_no_name_of_the_process(tmp_path):
    p = tmp_path / "p.pi"
    p.write_text("in(a, x). out(a, z#2). 0\n")
    code, out, _ = run(["trace", str(p), THY])
    assert code == 0
    inputs = [l for l in out.splitlines() if "--a?" in l]
    assert len(inputs) == 1 and "--a?z#2-->" not in inputs[0], out


def test_fmt_roundtrip(tmp_path):
    code, out, _ = run(["fmt", corpus_path("server_b.pi")])
    assert code == 0
    f = tmp_path / "roundtrip.pi"
    f.write_text(out)
    code2, out2, _ = run(["fmt", str(f)])
    assert code2 == 0 and out2 == out


def test_deterministic_output():
    args = ["check-bisim", corpus_path("mobility_l.pi"),
            corpus_path("mobility_r.pi"), THY, "--recipe-depth", "1"]
    runs = {run(args)[1] for _ in range(2)}
    assert len(runs) == 1


def test_usage_error_exit_64():
    code, _, _ = run(["check-bisim", "only-one-arg"])
    assert code == 64


def test_file_error_exit_66():
    code, _, err = run(["check-bisim", "/nonexistent.pi", "/nonexistent.pi", THY])
    assert code == 66


def test_malformed_validate_files_exit_66(tmp_path):
    malformed = {
        "header only": "witness v1\n",
        "no root": "witness v1\nmode early-applied\npair 0 ~~ 0\n",
        "pair without ~~": "witness v1\nmode early-applied\nroot 0 ~~ 0\npair 0 0\n",
        "bad process": "witness v1\nmode early-applied\nroot 0 ~~ 0\npair 0 ~~ out(a,\n",
        "bad recipe": "static x vs y( equal-on a at 0 ~~ 0\n",
        "bad side": "capability sideways tau at 0 ~~ 0\n",
        "bad history": "capability left tau at-pi x^q : tau. 0 ~~ 0\n",
    }
    for what, text in malformed.items():
        f = tmp_path / "bad.txt"
        f.write_text(text)
        code, out, err = run(["check-bisim", corpus_path("server_a.pi"),
                              corpus_path("server_a.pi"), THY, "--validate", str(f)])
        assert code == 66, (what, err[-500:])
        assert out == "" and err.count("\n") == 1 and "expected" in err, (what, err)


def test_emit_witness_revalidates(tmp_path):
    w = tmp_path / "witness.txt"
    code, _, _ = run(["check-bisim", corpus_path("open_guard_l.pi"),
                      corpus_path("open_guard_r.pi"), THY,
                      "--recipe-depth", "1", "--depth", "16",
                      "--emit-witness", str(w)])
    assert code == 0 and w.exists()
    # early-mode witness from an equal pair (pi witnesses re-validate via
    # check-bisim --late-pi path below)
    w2 = tmp_path / "w2.txt"
    code, _, _ = run(["check-bisim", corpus_path("server_a.pi"),
                      corpus_path("server_b.pi"), THY,
                      "--recipe-depth", "1", "--emit-witness", str(w2)])
    assert code == 0
    code2, out, _ = run(["check-bisim", corpus_path("server_a.pi"),
                         corpus_path("server_b.pi"), THY,
                         "--recipe-depth", "1", "--validate", str(w2)])
    assert code2 == 0 and "valid" in out


def test_damaged_witness_at_a_forked_size_is_invalid(tmp_path):
    # 345 pairs, above bisim._FORK_MIN_PAIRS: with 2 or more usable CPUs
    # validation is shared out over forked workers, and the 12th pair falls
    # in a worker's block for 2, 3 or 4 processes
    args = ["check-bisim", corpus_path("fixed_server.pi"),
            corpus_path("fixed_server_p.pi"), THY, "--recipe-depth", "2"]
    w = tmp_path / "witness.txt"
    assert run(args + ["--emit-witness", str(w)])[:2] == (
        0, "bisimilar (witness of 345 pairs)\n")
    assert run(args + ["--validate", str(w)])[:2] == (0, "valid\n")
    lines = w.read_text().splitlines()
    drop = [i for i, l in enumerate(lines) if l.startswith("pair ")][11]
    w.write_text("".join(l + "\n" for i, l in enumerate(lines) if i != drop))
    assert run(args + ["--validate", str(w)])[:2] == (1, "invalid\n")


@pytest.mark.parametrize("pair", ["open_guard", "open_fresh", "tau_sum"])
def test_late_pi_witness_revalidates(tmp_path, pair):
    if pair == "tau_sum":
        left = right = tmp_path / "tau_sum.pi"
        left.write_text("tau. 0 + tau. tau. 0\n")
    else:
        left, right = corpus_path(f"{pair}_l.pi"), corpus_path(f"{pair}_r.pi")
    args = ["check-bisim", "--late-pi", str(left), str(right), THY]
    w = tmp_path / "witness.txt"
    code, _, _ = run(args + ["--emit-witness", str(w)])
    assert code == 0
    code, out, _ = run(args + ["--validate", str(w)])
    assert (code, out) == (0, "valid\n")
    # without the root's pairs the witness no longer holds
    lines = w.read_text().splitlines()
    root = lines[2].replace("root ", "pair ", 1)
    assert root in lines
    w.write_text("".join(l + "\n" for l in lines if l != root))
    code, out, _ = run(args + ["--validate", str(w)])
    assert (code, out) == (1, "invalid\n")


@pytest.mark.parametrize("left,right", [
    ("om_deadlock", "om_guarded_tau"), ("om_tau", "om_guarded_tau"),
    ("om_sum_l", "om_sum_r"), ("om_outin_l", "om_outin_r"),
])
def test_late_pi_strategy_leaves_revalidate(tmp_path, left, right):
    _emit_validate_swap(tmp_path, ["check-bisim", "--late-pi", corpus_path(f"{left}.pi"),
                                   corpus_path(f"{right}.pi"), THY])


def test_late_pi_bound_output_leaf_after_extrusion(tmp_path):
    left, right = tmp_path / "l.pi", tmp_path / "r.pi"
    left.write_text("new z. out(x, z). new z. out(x, z). 0\n")
    right.write_text("new z. out(x, z). 0\n")
    args = ["check-bisim", "--late-pi", str(left), str(right), THY]
    _emit_validate_swap(tmp_path, args)
    # the checker's fresh names avoid the generated names of the history
    s = tmp_path / "leaf.txt"
    for side, pair, verdict in [
        ("left", "new z. out(x, z). 0 ~~ 0", (0, "valid\n")),
        ("right", "0 ~~ new z. out(x, z). 0", (0, "valid\n")),
        ("right", "new z. out(x, z). 0 ~~ 0", (1, "invalid\n")),
        ("left", "new a. out(x, a). 0 + new b. out(y, b). 0 ~~ new z. out(x, z). 0",
         (1, "invalid\n")),
    ]:
        s.write_text(f"capability {side} x!(z#7) at-pi x^i.y^i.z#2^o : {pair}\n")
        assert run(args + ["--validate", str(s)])[:2] == verdict, (side, pair)


def _emit_validate_swap(tmp_path, args):
    """The strategy check-bisim emits for args validates, and no longer
    does once the sides of any one of its late-pi leaves are swapped."""
    s = tmp_path / "strategy.txt"
    code, _, _ = run(args + ["--emit-strategy", str(s)])
    assert code == 1
    lines = s.read_text().splitlines()
    code, out, _ = run(args + ["--validate", str(s)])
    assert (code, out) == (0, "valid\n")
    # a leaf whose sides are swapped no longer holds under its history
    leaves = [i for i, l in enumerate(lines) if " at-pi " in l]
    assert leaves
    for i in leaves:
        swap = {"left": "right", "right": "left"}
        pad, _, rest = lines[i].partition("capability ")
        side, _, tail = rest.partition(" ")
        swapped = lines[:i] + [f"{pad}capability {swap[side]} {tail}"] + lines[i + 1:]
        s.write_text("".join(l + "\n" for l in swapped))
        code, out, _ = run(args + ["--validate", str(s)])
        assert (code, out) == (1, "invalid\n"), lines[i]


def test_emit_strategy_revalidates(tmp_path):
    s = tmp_path / "strategy.txt"
    code, _, _ = run(["check-bisim", corpus_path("server_a.pi"),
                      corpus_path("server_c.pi"), THY,
                      "--recipe-depth", "1", "--emit-strategy", str(s)])
    assert code == 1 and s.exists()
    code2, out, _ = run(["check-bisim", corpus_path("server_a.pi"),
                         corpus_path("server_c.pi"), THY,
                         "--recipe-depth", "1", "--validate", str(s)])
    assert code2 == 0 and "valid" in out


def test_static_leaf_naming_a_private_name_is_invalid(tmp_path):
    left, right, s = tmp_path / "l.pi", tmp_path / "r.pi", tmp_path / "s.txt"
    left.write_text("new k. {w = k}\n")
    right.write_text("new k, j. {w = j}\n")
    args = ["check-bisim", str(left), str(right), THY]
    assert run(args)[:2] == (0, "bisimilar (witness of 1 pairs)\n")
    # a forged leaf: the attacker cannot use the left side's private k
    s.write_text("static k vs w equal-on a at new k. {w = k} ~~ new j. {w = j}\n")
    assert run(args + ["--validate", str(s)])[:2] == (1, "invalid\n")
    # the leaf the checker emits for a public k against a private one holds
    left.write_text("{w = k}\n")
    right.write_text("new k. {w = k}\n")
    code, out, _ = run(args + ["--emit-strategy", str(s)])
    assert code == 1 and "static w vs k" in out
    assert run(args + ["--validate", str(s)])[:2] == (0, "valid\n")


def test_json_output():
    code, out, _ = run(["check-bisim", corpus_path("mobility_l.pi"),
                        corpus_path("mobility_r.pi"), THY,
                        "--recipe-depth", "1", "--json"])
    import json
    data = json.loads(out)
    assert data["verdict"] == "distinguished"


# Deep inputs run in a subprocess: a stack overflow there would take the
# test process down with it.

def test_deeply_nested_inputs_exit_66(tmp_path):
    flat = tmp_path / "flat.pi"
    flat.write_text("out(a, x). 0\n")
    deep_term = tmp_path / "deep_term.pi"
    deep_term.write_text("out(a, " + "hash(" * 60_000 + "x" + ")" * 60_000 + "). 0\n")
    deep_proc = tmp_path / "deep_proc.pi"
    deep_proc.write_text("out(a, x). " * 60_000 + "0\n")
    for deep in (deep_term, deep_proc):
        code, _, err = run(["check-bisim", str(deep), str(flat), THYB])
        assert code == 66, err[-500:]
        assert "levels of nesting" in err


def test_recursion_too_deep_exits_70(tmp_path):
    # every parser refuses inputs deep enough to exhaust the stack, so the
    # recursion error is raised from inside the checker
    formula = tmp_path / "f.fm"
    formula.write_text("<tau>tt\n")
    script = (
        "import sys, openbisim.cli as cli\n"
        "def deep(*args):\n"
        "    raise RecursionError('maximum recursion depth exceeded')\n"
        "cli.model_check = deep\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "model-check", corpus_path("server_a.pi"),
         str(formula), THY],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 70, proc.stderr[-500:]
    assert "recursion" in proc.stderr


def test_deeply_nested_formulas_exit_66(tmp_path):
    server = corpus_path("server_a.pi")
    for levels, code in ((999, 1), (1_001, 66), (150_000, 66)):
        formula = tmp_path / f"deep{levels}.fm"
        formula.write_text("<tau>" * levels + "tt\n")
        got, out, err = run(["model-check", server, str(formula), THY])
        assert got == code, (levels, err[-500:])
        assert ("unsat" in out) if code == 1 else ("levels of nesting" in err)
    # a term nested too deep inside a formula is refused the same way, and
    # the levels of its terms count with those of the formula around them
    for name, text in (("deep_term", "x = " + "hash(" * 1_001 + "y" + ")" * 1_001),
                       ("deep_both", "<tau>" * 600 + "x = " + "hash(" * 600 + "y"
                        + ")" * 600)):
        formula = tmp_path / f"{name}.fm"
        formula.write_text(text + "\n")
        got, _, err = run(["model-check", server, str(formula), THY])
        assert got == 66, err[-500:]
        assert "levels of nesting" in err


@pytest.mark.parametrize("channel", ["taux", "ttl"])
def test_distinguish_formulas_read_back(tmp_path, channel):
    # tt, ff and tau are whole identifiers: a name that starts with one of
    # them reads back as a name
    left, right = tmp_path / "l.pi", tmp_path / "r.pi"
    left.write_text(f"out({channel}, a). 0\n")
    right.write_text("0\n")
    code, out, _ = run(["distinguish", str(left), str(right), THY])
    assert code == 0
    lines = dict(line.split(":", 1) for line in out.splitlines())
    for bias, sat_side in (("left-biased", left), ("right-biased", right)):
        formula = tmp_path / f"{bias}.fm"
        formula.write_text(lines[bias].strip() + "\n")
        for side in (left, right):
            got = run(["model-check", str(side), str(formula), THY])[:2]
            assert got == ((0, "sat\n") if side == sat_side else (1, "unsat\n")), (bias, side)
    if channel == "taux":
        s = tmp_path / "strategy.txt"
        args = ["check-bisim", str(left), str(right), THY]
        assert run(args + ["--emit-strategy", str(s)])[0] == 1
        assert run(args + ["--validate", str(s)])[:2] == (0, "valid\n")


def test_witness_of_another_pair_is_invalid(tmp_path):
    p = tmp_path / "p.pi"
    p.write_text("out(x, a). 0 | in(y, z). 0\n")
    w = tmp_path / "witness.txt"
    assert run(["check-bisim", str(p), str(p), THY, "--emit-witness", str(w)])[0] == 0
    assert run(["check-bisim", str(p), str(p), THY, "--validate", str(w)])[:2] == (0, "valid\n")
    # the root line is not the pair checked
    code, out, _ = run(["check-bisim", corpus_path("server_a.pi"), corpus_path("server_c.pi"),
                        THY, "--validate", str(w)])
    assert (code, out) == (1, "invalid\n")


def test_witness_of_another_mode_is_invalid(tmp_path):
    args = ["check-bisim", corpus_path("open_guard_l.pi"), corpus_path("open_guard_r.pi"), THY]
    w = tmp_path / "witness.txt"
    assert run(args + ["--emit-witness", str(w)])[0] == 0
    assert run(args + ["--validate", str(w)])[:2] == (0, "valid\n")
    assert run(args + ["--late-pi", "--validate", str(w)])[:2] == (1, "invalid\n")


def test_closed_stdout_exits_74_without_a_traceback():
    # the reader has gone before anything is written, as after `| head -1`:
    # a pipe whose read end is closed
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "openbisim.cli", "trace",
             corpus_path("fixed_server.pi"), THY, "--depth", "6"],
            stdout=w, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(w)
    assert proc.returncode == 74, proc.stderr[-500:]
    assert proc.stderr == ""


@pytest.mark.parametrize("formula", ["<a?x>tt", "[a?x]ff"])
def test_early_input_label_is_refused_in_late_pi_mode(tmp_path, formula):
    p, f = tmp_path / "p.pi", tmp_path / "f.fm"
    p.write_text("in(a, y). 0\n")
    f.write_text(formula + "\n")
    assert run(["model-check", str(p), str(f), THY])[:2] == (
        (0, "sat\n") if formula.startswith("<") else (1, "unsat\n"))
    code, _, err = run(["model-check", str(p), str(f), THY, "--late-pi"])
    assert code == 66, err[-500:]
    assert "label kind 'in' needs the early mode" in err


def test_model_check_and_distinguish_unfold_replication(tmp_path):
    rep, once = tmp_path / "rep.pi", tmp_path / "once.pi"
    rep.write_text("rep in(a, y). 0\n")
    once.write_text("in(a, y). 0\n")
    twice = tmp_path / "twice.fm"
    twice.write_text("<a?x><a?x>tt\n")
    code, _, err = run(["model-check", str(rep), str(twice), THY])
    assert code == 64 and "--unfold" in err
    assert run(["model-check", str(rep), str(twice), THY, "--unfold", "2"])[:2] == (0, "sat\n")
    assert run(["model-check", str(once), str(twice), THY, "--unfold", "2"])[:2] == (1, "unsat\n")

    assert run(["distinguish", str(rep), str(once), THY])[0] == 64
    code, out, _ = run(["distinguish", str(rep), str(once), THY, "--unfold", "2"])
    assert code == 0
    left = tmp_path / "left.fm"
    left.write_text(dict(line.split(":", 1) for line in out.splitlines())["left-biased"])
    assert run(["model-check", str(rep), str(left), THY, "--unfold", "2"])[:2] == (0, "sat\n")
    assert run(["model-check", str(once), str(left), THY])[:2] == (1, "unsat\n")
    # two copies on each side are not told apart
    two = tmp_path / "two.pi"
    two.write_text("in(a, y). 0 | in(a, y). 0\n")
    assert run(["distinguish", str(rep), str(two), THY, "--unfold", "2"])[:2] == (
        1, "not distinguished\n")


@pytest.mark.parametrize("command", ["check-bisim", "distinguish", "model-check"])
def test_replication_without_unfold_names_the_flag_once(tmp_path, command):
    rep, once, formula = tmp_path / "rep.pi", tmp_path / "once.pi", tmp_path / "f.fm"
    rep.write_text("rep in(a, y). 0\n")
    once.write_text("in(a, y). 0\n")
    formula.write_text("<a?x>tt\n")
    other = formula if command == "model-check" else once
    code, _, err = run([command, str(rep), str(other), THY])
    assert code == 64, err[-500:]
    assert err.count("--unfold") == 1, err
