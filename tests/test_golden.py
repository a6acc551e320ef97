"""Output pinning: the sha256 of what each corpus entry prints.

For every bundled corpus entry except hash-and-sign (pinned by its own
witness hash in the CLI checks), the digest covers the rendered witness or
strategy of `check-bisim`, the `distinguish` formulas of a distinguished
pair, and the model-check result, each computed on a freshly loaded theory
as the command-line front end does.  A change that must keep the output
byte-identical keeps these digests.

Print the digests of the current source with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import pytest

from openbisim import corpus
from openbisim.bisim import (
    Bisimilar, CheckConfig, DistinguishedVerdict, open_bisim_pi_check,
    quasi_open_check,
)
from openbisim.cli import render_strategy, render_witness
from openbisim.logic import check, distinguish, parse_formula, pretty_formula
from openbisim.syntax import parse
from openbisim.terms import load_theory

DIGESTS = {
    "server-a-vs-b":
        "7771d7d30aa06e708e0950dc075d545f59947b0b0eb45603f1d7ae2851856ec4",
    "server-a-vs-c":
        "339a031bbcd650409b7063662f5abc103dbb3dc709cba78b0ce5948325071b72",
    "mobility":
        "497468a3c5a5b6bdb64145f63d08107b35b512dd45e47998b1653340ae9f6ec9",
    "aenc-under-refinement":
        "9c8d65be49c1c03ab92b27ceb325e804b443f57aefc4f9fb122d7020d4ca9bcb",
    "lem-choice":
        "a26b04a56b7305d543316710a25ab8eea1cf6e834df754278945dde9e3c192de",
    "lem-grounded":
        "e6258eb1ed84658d96a5fa174e3b9431b76f60c9d5f4399abcf59022e6d87f32",
    "blind-without-equation":
        "890bc8b6f05b82ea35298a3c9e117257fe1e5f384a68fa442ec610538f60b0c4",
    "blind-forgery":
        "819e25a166cf8446cd28d27773c88a6c0c02152ff2352544db9e331e1d292763",
    "broken-servers":
        "ad52254c9883e02a98aba5ae328a742188b80ad09f860e0aac1c41c8cd21dc06",
    "fixed-servers":
        "1e9d224ad240078c94b45f1f03d3ed655c8d509c47496bad9248dcb1914c4c29",
    "pair-mismatch-worlds":
        "b1c025355cb74b202f13bdf6dd170722a2ce95254d4aaa96d439b68fe471f2d2",
    "open-guard":
        "1b30d5ab79f38d9302dff279b59640070ed30cbc830a84a10ca6597b478a707c",
    "open-fresh":
        "857689b5bff1034e4f201a46cf3e9d11820b695cdf265da8d577e62fc916012e",
    "om-deadlock":
        "3bcaa12a4320578af5c70d70a5bf4cbfe3ee63406e9ef4e2cdac25889342632b",
    "om-tau":
        "67acb50a88930ca1d051a590b95d047acbedd0092a0c589b82d703e02a757096",
    "om-sums":
        "4f0997d24d2fe63e75e3889c1f495c51b30749febac6fe52fea7e3cf9bf39ae6",
    "om-outin":
        "9c0c6b41dc796dd051ae06ce8fcfd24ec12100aab3a349081d012b5fdca8548e",
    "attack-on-c":
        "9035ac2d62ab4f4a82b992dea9f73e159e204ede7e2639cd1485eb2304a7a018",
    "attack-not-on-a":
        "d598940d9b30a7e86050ae16ba31586432f0fe72dd37cc46bac8e774aecf3dbd",
    "lem-holds-on-r":
        "9035ac2d62ab4f4a82b992dea9f73e159e204ede7e2639cd1485eb2304a7a018",
    "lem-fails-on-s":
        "d598940d9b30a7e86050ae16ba31586432f0fe72dd37cc46bac8e774aecf3dbd",
    "blind-attack-trace":
        "9035ac2d62ab4f4a82b992dea9f73e159e204ede7e2639cd1485eb2304a7a018",
    "broken-trace-left":
        "9035ac2d62ab4f4a82b992dea9f73e159e204ede7e2639cd1485eb2304a7a018",
    "broken-trace-right":
        "d598940d9b30a7e86050ae16ba31586432f0fe72dd37cc46bac8e774aecf3dbd",
}

ENTRIES = [e for e in corpus.ENTRIES if e.name != "hash-and-sign"]


def fresh(entry):
    return load_theory(corpus.path(entry.theory))


def rendered(entry) -> str:
    """Everything the CLI prints about `entry`, as one text."""
    cfg = CheckConfig(recipe_depth=entry.recipe_depth, max_depth=entry.max_depth,
                      mode="late-pi" if entry.kind == "bisim-pi" else "early-applied")
    left = parse(corpus.read(entry.left))
    if entry.kind == "model-check":
        formula = parse_formula(corpus.read(entry.formula))
        return "model-check " + check(left, formula, fresh(entry), cfg).value + "\n"
    right = parse(corpus.read(entry.right))
    game = open_bisim_pi_check if entry.kind == "bisim-pi" else quasi_open_check
    verdict = game(left, right, fresh(entry), cfg)
    if isinstance(verdict, Bisimilar):
        return render_witness(verdict.witness)
    if not isinstance(verdict, DistinguishedVerdict):
        return f"unknown: {verdict.reason}\n"
    fl, fr = distinguish(left, right, fresh(entry), cfg)
    return (render_strategy(verdict.strategy)
            + f"left-biased:  {pretty_formula(fl)}\n"
            + f"right-biased: {pretty_formula(fr)}\n")


def digest(entry) -> str:
    return hashlib.sha256(rendered(entry).encode()).hexdigest()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_corpus_output_is_pinned(entry):
    assert digest(entry) == DIGESTS[entry.name]


if __name__ == "__main__":
    for e in ENTRIES:
        print(f'    "{e.name}":\n        "{digest(e)}",')
