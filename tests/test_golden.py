"""Output pinning: the sha256 of what each corpus entry prints.

For every bundled corpus entry, the digest covers the rendered witness or
strategy of `check-bisim`, the `distinguish` formulas of a distinguished
pair, and the model-check result, each computed on a freshly loaded theory
as the command-line front end does, and again, in three seeded orders, on
one theory object per theory file shared by every check.  A change that
must keep the output byte-identical keeps these digests.  Hash-and-sign, the largest witness
(24,172 pairs), has a test of its own that also validates the witness, on
the split-over-workers path of `validate_witness`.  Every formula printed
or read must read back as itself.  Beyond the corpus, the rendered
`open_bisim_pi_check` output of 40 seeded small pi-fragment pairs (guards,
restriction, sums, parallel, inputs, free and bound outputs) is pinned too,
one digest covers the check output of 400 such pairs in both modes, and one
covers what `distinguish` gives on the first 100 of them in both modes.

Print the digests of the current source with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import itertools
import random

import pytest

from openbisim import corpus
from openbisim.bisim import (
    _FORK_MIN_PAIRS, Bisimilar, CheckConfig, DistinguishedVerdict,
    open_bisim_pi_check, quasi_open_check, validate_witness,
)
from openbisim.cli import render_strategy, render_witness
from openbisim.bisim import Unknown
from openbisim.logic import (
    NotDistinguished, check, distinguish, formula_alpha_equiv, parse_formula,
    pretty_formula,
)
from openbisim.syntax import parse, parse_process
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
    "hash-and-sign":
        "b34e37f83570cf50067a0bf7fa63e8202d66bf53fd25393936a194fe07051f6b",
}

PI_DIGESTS = {
    0:
        "6362ba1002e7c65af511ada3c8c44b0b04395af0051ce791e748998a768d2984",
    1:
        "ce097d5b9c327851e1bc101bc1b006eca41b491c414c895a994407d481399509",
    2:
        "129534e055dc9a0b0ddaf89f6e57f154d91b614b20d5c72968ca79f641cf5a37",
    3:
        "8c00cff26c1ad5fbe321e975f673d2216227f47a0e3e39e7b7b60c8a48e539ee",
    4:
        "9faa24d64ca3872a1a568b548779791da24f89124f40b4c5442fc1103a294cd2",
    5:
        "e7dfaf36f487d52dd2da81542a25b394fe41a6519e62be6f75a91147f39117f4",
    6:
        "3a4b51a5b844473f91391cc4cc27e38251a04bc7d84c6d9acc4407d0daad73de",
    7:
        "8f65aa3645b322f51e89141aa07aecf970395fc6a757a7aad19dc02d6905af42",
    8:
        "286bd9672b02d76e767ab895a36690a528431ec5d1559624090d176c621da05d",
    9:
        "4f94bdf7222e2ec61a01166c1b36e39b26ae5924c637586caa82366bdb44a6ba",
    10:
        "ef18961c1e56de13b6779677ae1dfb1d464df09447c524c6dd0056a0a5280fc1",
    11:
        "88734498447092aea072dc5bdf31656b873a89ced4c407ac99b9680c40d0305a",
    12:
        "d65dc9113def68ab58b517d8051156163fd098643ef7fe79a54cc6e739a4ecfb",
    13:
        "50663e7c58178da60a78588f0709090dfa96c9b456b59ee7e60d3f7fddaaeabc",
    14:
        "6a920a78cbc9f95037df5b11fb2e6affeda0bce8380fff9979580816ec9d0db3",
    15:
        "b77127469468244f983a30f9a86f4885c69096d07f3e79f50c4bfcaaef48b920",
    16:
        "3a23be870a3aeb7f60998ff2e0170781ce13c8736f164e4b025623ca996b9490",
    17:
        "ccb3012e28668c85f6eb9377f30e253a889d79173c98afd2da62c8d58abc1d16",
    18:
        "6441ffc5a67f8711dbe98aba5aa67f6265c2c96eb5c6bf1b1e407adb808c05ac",
    19:
        "fba9b9f45b43e2f9b846864e39def3eee475a0b4d53d6805cfa3bb3b92af1cfc",
    20:
        "7e25e79a9acd1eec8a40a3031ca6a4f32c118a88d54151f06183865de64ff802",
    21:
        "17ff0dfa612889601c0fe2e1a8bfda42164ad14cf0c522c5f59f3e495beead35",
    22:
        "4a4b730b1c6aa608c06d59f5ea4cf8c24890af0a6ebd0c2fdd01e2af84f0f079",
    23:
        "b002b85febc0bfcb1fc86e2888115b81b1326d4e26eb649a91dccc0377285ef0",
    24:
        "8de502f5bd32472106265c02f80a1969d2865081564c699cd683d89aa1c6ead7",
    25:
        "410b7eff9ae2ca6e536fbf8813129deb86598c9d1967fc36599c13c331f39043",
    26:
        "7b11e9acc0f3f99c575bae95b8f2497b43e74ef626f85483afd6ca6853da09bd",
    27:
        "cd2c8facaa0f4b03b4aa5048fe2f893628a83d758a5e6ccfaa47154d168dfb14",
    28:
        "39c3abe0ff1f005b051be6e5fa4914a3d5474bf4d73821ca718488bd73fa7fb4",
    29:
        "2c05c7ca126bcd428286789f5b1bd4731567ff1b58439b0d2b38702143259467",
    30:
        "bb3ab74fb9256a51b60cea87564c2141055947b392e69d8fd5d9b6fdbd51c944",
    31:
        "6e4437fc1f9c54794fadfffaaec695fd83b8ffa68e8b0f16e6927158e2cecfb6",
    32:
        "4345bf8c7fc304a19f585c872bf6fccb70972770f4cd0873bc80a9de4c162fd3",
    33:
        "62a44f12318a450c80569a406495282d6e041227bd661768fa263773bfdefd1d",
    34:
        "3fc4855c86c4659a6126b2725ac760de0be2888ef79526a5943c0b4c8366cee4",
    35:
        "f219b1e142c1d82d37fa05ee0999dcdccc8c41f379432e2264c8e1274664e1b2",
    36:
        "3239f25b29a67ef937ca61d8fba0760efd0269b7c2d678d57a0591a42de48f2d",
    37:
        "b91be7b131b6fb7bdb0046c7f377140109b1ff83febe21dcdad7b7f111e3e288",
    38:
        "5199b4d2d8178fd6e13bc0252d1e946c4b43689dc7607c8852cf206332aaf54f",
    39:
        "a0878a63cda11823e806fc3d8909f8d1dd684eacc843b7ae5a4d399008bbf7ed",
}

# one sha256 over the rendered check output of pi_pair seeds 0-399, all in
# the early-applied mode, then all in the late-pi mode
PI_PAIRS_DIGEST = \
    "7d89bb8112b2aa45e2094acbfec350cd37cffe7e34b2d70590c4034c33e094ad"

# one sha256 over what `distinguish` gives on pi_pair seeds 0-99, all in the
# early-applied mode, then all in the late-pi mode
PI_DISTINGUISH_DIGEST = \
    "92831e0bd93a4149b5dbbb3da00516c53b61add7b26d656b070a194130122570"

ENTRIES = [e for e in corpus.ENTRIES if e.name != "hash-and-sign"]
HASH_AND_SIGN = next(e for e in corpus.ENTRIES if e.name == "hash-and-sign")


def fresh(entry):
    return load_theory(corpus.path(entry.theory))


def config(entry) -> CheckConfig:
    return CheckConfig(recipe_depth=entry.recipe_depth, max_depth=entry.max_depth,
                       mode="late-pi" if entry.kind == "bisim-pi" else "early-applied")


def printed(f) -> str:
    """pretty_formula(f), which must read back as f."""
    text = pretty_formula(f)
    assert formula_alpha_equiv(parse_formula(text), f), text
    return text


def rendered(entry, theory=fresh) -> str:
    """Everything the CLI prints about `entry`, as one text; each command
    runs on `theory(entry)`."""
    cfg = config(entry)
    left = parse(corpus.read(entry.left))
    if entry.kind == "model-check":
        formula = parse_formula(corpus.read(entry.formula))
        printed(formula)
        return "model-check " + check(left, formula, theory(entry), cfg).value + "\n"
    right = parse(corpus.read(entry.right))
    game = open_bisim_pi_check if entry.kind == "bisim-pi" else quasi_open_check
    verdict = game(left, right, theory(entry), cfg)
    if isinstance(verdict, Bisimilar):
        return render_witness(verdict.witness)
    if not isinstance(verdict, DistinguishedVerdict):
        return f"unknown: {verdict.reason}\n"
    fl, fr = distinguish(left, right, theory(entry), cfg)
    return (render_strategy(verdict.strategy)
            + f"left-biased:  {printed(fl)}\n"
            + f"right-biased: {printed(fr)}\n")


def digest(entry) -> str:
    return hashlib.sha256(rendered(entry).encode()).hexdigest()


class _Choices:
    """Seeded choices; the `flip`-th choice takes the next option instead."""

    def __init__(self, seed: int, flip: int | None = None):
        self.rng = random.Random(seed)
        self.flip = flip
        self.count = 0

    def pick(self, options):
        got = self.rng.randrange(len(options))
        if self.count == self.flip:
            got = (got + 1) % len(options)
        self.count += 1
        return options[got]


PI_NAMES = ("a", "x", "y")


def _pi_process(ch: _Choices, depth: int, names: tuple, fresh) -> str:
    """A random pi-fragment process of at most `depth` nested constructs
    over the free names `names`; no deadlock above depth 1."""
    kinds = ("0", "tau", "out", "bout", "in", "eq", "neq", "sum", "par", "new")
    kind = ch.pick(kinds[depth > 1:] if depth > 0 else ("0",))
    if kind == "0":
        return "0"

    def sub(ns=names):
        return _pi_process(ch, depth - 1, ns, fresh)

    if kind == "tau":
        return f"tau. {sub()}"
    if kind in ("out", "in", "eq", "neq"):
        s, t = ch.pick(names), ch.pick(names)
        if kind == "out":
            return f"out({s}, {t}). {sub()}"
        if kind == "eq":
            return f"[{s} = {t}] {sub()}"
        if kind == "neq":
            return f"[{s} != {t}] {sub()}"
        v = f"v{next(fresh)}"
        return f"in({s}, {v}). {sub(names + (v,))}"
    if kind in ("sum", "par"):
        op = " + " if kind == "sum" else " | "
        return f"({sub()}{op}{sub()})"
    z = f"z{next(fresh)}"
    if kind == "bout":
        return f"new {z}. out({ch.pick(names)}, {z}). {sub(names + (z,))}"
    return f"new {z}. {sub(names + (z,))}"


def pi_pair(seed: int) -> tuple[str, str]:
    """The seed-th pair: a process against itself, against its doubled sum,
    against a one-choice variant, or against itself plus a branch under a
    mismatch guard."""
    p = _pi_process(_Choices(seed), 3, PI_NAMES, itertools.count())
    how = seed % 4
    if how == 0:
        return p, p
    if how == 1:
        return p, f"({p} + {p})"
    if how == 2:
        ch = _Choices(seed)
        _pi_process(ch, 3, PI_NAMES, itertools.count())
        flip = _Choices(seed, flip=random.Random(-seed).randrange(ch.count))
        return p, _pi_process(flip, 3, PI_NAMES, itertools.count())
    r = _pi_process(_Choices(-seed), 2, PI_NAMES, itertools.count())
    return p, f"({p} + [x != y] {r})"


def pi_rendered(seed: int, mode: str = "late-pi") -> str:
    """The witness, strategy or unknown line the check of `mode` gives for
    the seed-th pair under dy-asym."""
    p, q = pi_pair(seed)
    th = load_theory(corpus.path("dy-asym.thy"))
    cfg = CheckConfig(recipe_depth=1, max_depth=16, mode=mode)
    game = open_bisim_pi_check if mode == "late-pi" else quasi_open_check
    verdict = game(parse_process(p), parse_process(q), th, cfg)
    if isinstance(verdict, Bisimilar):
        return render_witness(verdict.witness)
    if isinstance(verdict, DistinguishedVerdict):
        return render_strategy(verdict.strategy)
    return f"unknown: {verdict.reason}\n"


def pi_digest(seed: int) -> str:
    """The digest of the witness or strategy `open_bisim_pi_check` gives
    for the seed-th pair under dy-asym."""
    return hashlib.sha256(pi_rendered(seed).encode()).hexdigest()


def pi_pairs_digest() -> str:
    h = hashlib.sha256()
    for mode in ("early-applied", "late-pi"):
        for seed in range(400):
            h.update(pi_rendered(seed, mode).encode())
    return h.hexdigest()


def pi_distinguished(seed: int, mode: str) -> str:
    """The two formulas, `not distinguished`, the unknown line or the name
    of the exception `distinguish` gives in `mode` for the seed-th pair
    under dy-asym."""
    p, q = pi_pair(seed)
    th = load_theory(corpus.path("dy-asym.thy"))
    cfg = CheckConfig(recipe_depth=1, max_depth=16, mode=mode)
    try:
        got = distinguish(parse_process(p), parse_process(q), th, cfg)
    except Exception as exc:
        return f"{type(exc).__name__}\n"
    if isinstance(got, NotDistinguished):
        return "not distinguished\n"
    if isinstance(got, Unknown):
        return f"unknown: {got.reason}\n"
    fl, fr = got
    return (f"left-biased:  {pretty_formula(fl)}\n"
            f"right-biased: {pretty_formula(fr)}\n")


def pi_distinguish_digest() -> str:
    h = hashlib.sha256()
    for mode in ("early-applied", "late-pi"):
        for seed in range(100):
            h.update(pi_distinguished(seed, mode).encode())
    return h.hexdigest()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_corpus_output_is_pinned(entry):
    assert digest(entry) == DIGESTS[entry.name]


def test_output_does_not_depend_on_earlier_checks():
    # one process, one theory object per theory file for every check (its
    # memo tables filled by whatever ran before), three seeded orders
    theories = {}

    def shared(entry):
        if entry.theory not in theories:
            theories[entry.theory] = fresh(entry)
        return theories[entry.theory]

    for seed in range(3):
        order = list(ENTRIES)
        random.Random(seed).shuffle(order)
        for entry in order:
            got = hashlib.sha256(rendered(entry, shared).encode()).hexdigest()
            assert got == DIGESTS[entry.name], (seed, entry.name)


def test_hash_and_sign_witness_is_pinned_and_validates():
    entry, th, cfg = HASH_AND_SIGN, fresh(HASH_AND_SIGN), config(HASH_AND_SIGN)
    verdict = quasi_open_check(parse(corpus.read(entry.left)),
                               parse(corpus.read(entry.right)), th, cfg)
    text = render_witness(verdict.witness)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[entry.name]
    # far above the pair threshold: split over the usable CPUs
    assert len(verdict.witness.pairs) >= _FORK_MIN_PAIRS
    assert validate_witness(verdict.witness, th, cfg)


@pytest.mark.parametrize("seed", sorted(PI_DIGESTS))
def test_pi_game_output_is_pinned(seed):
    assert pi_digest(seed) == PI_DIGESTS[seed]


def test_seeded_pi_pairs_output_is_pinned():
    assert pi_pairs_digest() == PI_PAIRS_DIGEST


def test_seeded_pi_pairs_distinguish_is_pinned():
    assert pi_distinguish_digest() == PI_DISTINGUISH_DIGEST


if __name__ == "__main__":
    for e in ENTRIES + [HASH_AND_SIGN]:
        print(f'    "{e.name}":\n        "{digest(e)}",')
    for seed in range(40):
        print(f'    {seed}:\n        "{pi_digest(seed)}",')
    print(f'PI_PAIRS_DIGEST = "{pi_pairs_digest()}"')
    print(f'PI_DISTINGUISH_DIGEST = "{pi_distinguish_digest()}"')
