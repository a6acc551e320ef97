"""Command-line behavior: exit codes, determinism, emit/validate round trips."""

import subprocess
import sys

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
        "cli.check = deep\n"
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
    # a term nested too deep inside a formula is refused the same way
    formula = tmp_path / "deep_term.fm"
    formula.write_text("x = " + "hash(" * 1_001 + "y" + ")" * 1_001 + "\n")
    got, _, err = run(["model-check", server, str(formula), THY])
    assert got == 66, err[-500:]
    assert "nested deeper" in err
