"""Hostile inputs: every command ends in a documented exit code, never in a
traceback.  `cli.main` runs in-process, so each case costs no interpreter
start."""

import random
from pathlib import Path

import pytest

from openbisim import cli, corpus
from openbisim.logic import SelfCheckFailed

THY = corpus.path("dy-asym.thy")
LOOP = "sym f/1\nrule f(X) -> f(f(X))\n"
SMALL = ["--depth", "4", "--recipe-depth", "1"]


def main(capsys, argv):
    """Exit code, stdout and stderr of the command line `argv`."""
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def files(tmp_path):
    """Write each keyword argument to a file of that stem; return the paths."""
    def write(**texts):
        paths = []
        for stem, text in texts.items():
            path = tmp_path / stem
            if isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text)
            paths.append(path)
        return paths
    return write


def test_each_failure_class_has_its_exit_code(capsys, files, monkeypatch):
    (pi, bad, latin, loop, looping, frame, other_frame, rep, late, unhoused, tau,
     framed_body, unapplied, chained, clashing, twice) = files(
        pi="out(a, b). 0\n", bad="out(a b). 0\n", latin=b"out(a, \xe9). 0\n",
        loop=LOOP, looping="out(a, f(b)). 0\n", frame="new n. {w = f(n)}\n",
        other_frame="new n. {v = n}\n", rep="rep out(a, b). 0\n", late="[x!y]ff\n",
        unhoused="<a!(v)>k = v\n", tau="<tau>tt\n",
        framed_body="new n. {} | out(a, n). 0\n", unapplied="{w = a} | out(c, w). 0\n",
        chained="{x = y, y = a}\n", clashing="new w. {w = a}\n", twice="{w = a, w = b}\n",
    )
    hashsign_r = corpus.path("hashsign_r.pi")
    private = corpus.path("om_outin_r.pi"), corpus.path("broken_trace.fm")
    cases = [
        # unreadable, non-UTF-8 and unparsable files
        (["fmt", "/nonexistent.pi"], 66, "cannot read"),
        (["fmt", latin], 66, "cannot read"),
        (["check-bisim", latin, pi, THY], 66, "cannot read"),
        (["model-check", pi, latin, THY], 66, "cannot read"),
        (["check-bisim", pi, pi, THY, "--validate", latin], 66, "cannot read"),
        (["fmt", bad], 66, "expected ','"),
        (["check-bisim", pi, pi, bad], 66, "cannot parse"),
        # frame literals that break a frame invariant, at the frame's '{'
        (["fmt", chained], 66, f"{chained}: line 1, column 1: expected a well-formed frame"),
        (["fmt", unapplied], 66, f"{unapplied}: line 1, column 1: expected a well-formed"),
        (["fmt", clashing], 66, f"{clashing}: line 1, column 8: expected a well-formed"),
        (["fmt", twice], 66, f"{twice}: line 1, column 1: expected a frame that binds"),
        # bad theories: an undeclared symbol, rewriting that never ends
        (["check-bisim", hashsign_r, hashsign_r, THY], 66, "undeclared symbol"),
        (["distinguish", hashsign_r, pi, THY], 66, "undeclared symbol"),
        (["model-check", hashsign_r, tau, THY], 66, "undeclared symbol"),
        (["trace", looping, loop], 66, "exceeded"),
        (["check-bisim", looping, looping, loop], 66, "exceeded"),
        (["check-static", frame, frame, loop], 66, "exceeded"),
        (["model-check", looping, tau, loop], 66, "exceeded"),
        (["distinguish", looping, pi, loop], 66, "exceeded"),
        # formulas that name a private name, or a late-pi label early
        (["model-check", *private, THY], 66, "private"),
        (["model-check", corpus.path("server_a.pi"), unhoused, THY], 66, "private"),
        (["model-check", pi, late, THY], 66, "late-pi"),
        # usage: replication without --unfold, --late-pi on applied input,
        # frames of different domains
        (["model-check", rep, tau, THY], 64, "--unfold"),
        (["distinguish", rep, pi, THY], 64, "--unfold"),
        (["check-bisim", rep, pi, THY], 64, "--unfold"),
        (["model-check", looping, tau, THY, "--late-pi"], 64, "theory function symbols"),
        (["model-check", other_frame, tau, THY, "--late-pi"], 64, "pi fragment"),
        (["check-bisim", framed_body, pi, THY, "--late-pi"], 64, "pi fragment"),
        (["distinguish", pi, other_frame, THY, "--late-pi"], 64, "pi fragment"),
        (["check-static", frame, other_frame, THY], 64, "domain"),
    ]
    for argv, code, words in cases:
        got = main(capsys, argv)
        assert got[0] == code and words in got[2], (argv, got)
        assert got[2].count("\n") == 1, (argv, got)

    def fails(*args, **kwargs):
        raise SelfCheckFailed("no candidate formula holds")

    monkeypatch.setattr(cli, "distinguish", fails)
    assert main(capsys, ["distinguish", pi, pi, THY]) == (
        70, "", "internal self-check failure: no candidate formula holds\n")

    def deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "model_check", deep)
    assert main(capsys, ["model-check", pi, tau, THY]) == (
        70, "", "internal error: recursion too deep\n")


@pytest.mark.parametrize("argv", [
    ["check-bisim", "P", "P", "T", "--depth", "-3"],
    ["check-bisim", "P", "P", "T", "--unfold", "-1"],
    ["check-static", "P", "P", "T", "--recipe-depth", "-1"],
    ["model-check", "P", "F", "T", "--unify-bound", "-2"],
    ["distinguish", "P", "P", "T", "--depth", "-1"],
    ["trace", "P", "T", "--unfold", "-1"],
])
def test_negative_bounds_are_usage_errors(capsys, files, argv):
    p, f = files(p="out(a, b). 0\n", f="<tau>tt\n")
    argv = [{"P": p, "F": f, "T": THY}.get(a, a) for a in argv]
    code, out, err = main(capsys, argv)
    assert (code, out) == (64, "") and "must not be negative" in err


CORPUS = Path(corpus.path("dy-asym.thy")).parent
SOURCES = {ext: [path.read_text() for path in sorted(CORPUS.glob("*" + ext))]
           for ext in (".pi", ".fm", ".thy")}
SOURCES[".pi"] += ["new n. {w = n}\n", "{w = a} | out(c, b). 0\n"]
NOISE = list("abxyzf0()[]{},.=!<>&|\\?#^+ \n") + ["tt", "ff", "tau", "new", "rep", "!=", "=>"]


def _mutant(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 5))
        text = rng.choice([
            text[:i] + text[j:],                        # delete a span
            text[:i] + rng.choice(NOISE) + text[i:],    # insert a token
            text[:i] + rng.choice(NOISE) + text[j:],    # replace a span
            text[:i] + text[i:j] + text[i:],            # repeat a span
        ])
    return text


def test_mutated_corpus_files_end_in_documented_codes(capsys, tmp_path):
    for seed in (2026, 7, 8):
        _mutation_pass(capsys, tmp_path, random.Random(seed))


def _mutation_pass(capsys, tmp_path, rng):
    count = 0

    def pick(ext):
        nonlocal count
        text = rng.choice(SOURCES[ext])
        if rng.random() < 0.3:
            text = _mutant(rng, text)
        count += 1
        path = tmp_path / f"{count}{ext}"
        path.write_text(text)
        return path

    for _ in range(400):
        command = rng.choice(["check-bisim", "check-static", "model-check",
                              "distinguish", "trace", "fmt", "corpus"])
        if command == "fmt":
            argv = [command, pick(".pi")]
        elif command == "corpus":
            argv = [command, "--only", "om-" + _mutant(rng, "tau")]
        elif command == "trace":
            argv = [command, pick(".pi"), pick(".thy"), "--depth", "2"]
        elif command == "model-check":
            argv = [command, pick(".pi"), pick(".fm"), pick(".thy"), *SMALL]
        else:
            argv = [command, pick(".pi"), pick(".pi"), pick(".thy"), *SMALL]
        if command in ("check-bisim", "model-check", "distinguish") and rng.random() < 0.3:
            argv.append("--late-pi")
        code, out, err = main(capsys, argv)
        assert code in (0, 1, 2, 64, 66) or (code == 70 and "self-check" in err), (argv, err)
        assert "Traceback" not in err, (argv, err)
