"""Syntax-layer tests: parsing, printing, alpha handling, renaming apart."""

import pytest

import openbisim.terms as terms
from openbisim.logic import parse_formula
from openbisim.syntax import (
    Choice, Deadlock, ExtendedProcess, Match, Mismatch, New,
    Parallel, ParseError, Process, Receive, Replicate, Send, TauPrefix,
    alpha_canonicalize, alpha_equiv, bound_names, free_vars, guard_pairs,
    guards_and_outputs, has_replication, is_pi_fragment, make_extended, parse,
    parse_process, pretty, promote, rename_apart, substitute,
)
from openbisim.terms import App, Substitution, Var

CORPUS_SOURCES = [
    "0",
    "new z. out(x, pair(z, y)). in(z, w). 0",
    "if x = pk(k) then out(a, aenc(m, pk(k))). 0 else out(a, r). 0",
    "new k, r. out(a, pk(k)). in(a, x). out(a, r). 0",
    "tau. 0 + tau. tau. 0 + tau. [x != y] tau. 0",
    "rep in(a, x). out(a, hash(x)). 0",
    "(in(a, x). 0 + tau. 0) | out(b, c). 0",
    "[x != y] (out(x, y). 0 | in(z, w). 0)",
    "new n. out(a, n). in(a, x). new k. out(a, sign(x, k)). in(a, y). [y = sign(n, k)] tau. 0",
]


def test_parse_mobility_example():
    p = parse("new z. out(x, pair(z,y)). in(z, w). 0")
    assert p == New(
        "z",
        Send(
            Var("x"), App("pair", (Var("z"), Var("y"))),
            Receive(Var("z"), "w", Deadlock()),
        ),
    )


def test_parse_deadlock():
    assert parse("0") == Deadlock()


def test_parse_if_then_else_desugars():
    p = parse("if x = pk(k) then out(a, aenc(m, pk(k))).0 else out(a, r).0")
    expected = Choice(
        Match(Var("x"), App("pk", (Var("k"),)),
              Send(Var("a"), App("aenc", (Var("m"), App("pk", (Var("k"),)))), Deadlock())),
        Mismatch(Var("x"), App("pk", (Var("k"),)),
                 Send(Var("a"), Var("r"), Deadlock())),
    )
    assert p == expected


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("out(a m). 0")
    assert exc.value.line == 1
    assert exc.value.column == 7
    assert "','" in exc.value.expected


def test_pretty_roundtrip_corpus():
    for src in CORPUS_SOURCES:
        p = parse_process(src)
        again = parse_process(pretty(p))
        assert again == p, src  # identity on canonical ASTs


def test_pretty_examples():
    assert pretty(Deadlock()) == "0"
    assert pretty(New("z", Send(Var("x"), Var("z"), Deadlock()))) == "new z. out(x, z). 0"


def test_free_vars():
    assert free_vars(parse("new z. out(x, z). 0")) == {"x"}
    assert free_vars(parse("in(a, x). [x = b] tau. 0")) == {"a", "b"}


def test_alpha_canonicalize_unshadows():
    p = parse_process("in(a, x). in(a, x). out(a, x). 0")
    inner = p.continuation
    assert p.binder != inner.binder
    # the output refers to the innermost binder
    assert inner.continuation.payload == Var(inner.binder)


def test_substitute_renames_captured_binder():
    # the bound name x is renamed when hash(x) is pushed under new x
    body = New("x", Match(Var("z"), App("hash", (Var("x"),)), TauPrefix(Deadlock())))
    out = substitute(body, Substitution.of({"z": App("hash", (Var("x"),))}))
    assert isinstance(out, New)
    assert out.binder != "x"
    guard = out.continuation
    assert guard.left == App("hash", (Var("x"),))
    assert guard.right == App("hash", (Var(out.binder),))


def test_substitute_identity():
    p = parse("new z. out(x, z). in(z, w). 0")
    assert substitute(p, Substitution.identity()) == p


def test_alpha_equiv():
    assert alpha_equiv(parse("new a. out(x, a). 0"), parse("new b. out(x, b). 0"))
    assert not alpha_equiv(parse("new a. out(x, a). 0"), parse("new a. out(y, a). 0"))


def test_guard_pairs():
    p = parse("if x = y then tau. 0 else [u != v] tau. 0")
    pairs = set(guard_pairs(p))
    assert ("=", Var("x"), Var("y")) in pairs
    assert ("!=", Var("x"), Var("y")) in pairs
    assert ("!=", Var("u"), Var("v")) in pairs


# ---------------------------------------------------------------------------
# Extended processes


def test_parse_extended():
    ep = parse("new m, n. {v = m, w = n} | 0")
    assert isinstance(ep, ExtendedProcess)
    assert ep.privates == ("m", "n")
    assert ep.frame.get("v") == Var("m")
    assert ep.frame_order == ("v", "w")


def test_rename_apart_renames_capture():
    a = parse("new z. {u = z} | out(c, z). 0")
    assert isinstance(a, ExtendedProcess)
    b = promote(parse_process("in(z, w). 0"))  # free z on the other side
    c = rename_apart(a, b.free_variables())
    # the private z was renamed away from the other side's free z
    assert c.privates and c.privates[0] != "z"
    assert c.frame.get("u") == Var(c.privates[0])
    assert c.body == Send(Var("c"), Var(c.privates[0]), Deadlock())
    assert rename_apart(c, b.free_variables()) is c


def test_make_extended_drops_unused_privates():
    ep = make_extended(("m", "n"), Substitution.of({"u": Var("m")}), Deadlock())
    assert ep.privates == ("m",)


def test_make_extended_applies_frame():
    # frames are fully applied to bodies in normal form
    body = Send(Var("c"), Var("u"), Deadlock())
    ep = make_extended(("m",), Substitution.of({"u": Var("m")}), body)
    assert ep.body.payload == Var("m")


# One instance of every node type, and for each field a second value; then
# what free_vars, bound_names, guard_pairs, output_terms, is_pi_fragment and
# has_replication give on the instance.


def output_terms(p):
    return guards_and_outputs(p)[1]


_X, _Y, _HX = Var("x"), Var("y"), App("h", (Var("x"),))
_K = Send(Var("z"), Var("w"), Deadlock())
NODES = [
    (Deadlock, (),
     (set(), set(), [], [], True, False)),
    (Send, ((_X, _Y), (_HX, _X), (_K, TauPrefix(Deadlock()))),
     ({"x", "z", "w"}, set(), [], [_HX, Var("w")], False, False)),
    (Receive, ((_X, _Y), ("z", "w"), (_K, TauPrefix(Deadlock()))),
     ({"x", "w"}, {"z"}, [], [Var("w")], True, False)),
    (Match, ((_X, _Y), (_HX, _X), (_K, TauPrefix(Deadlock()))),
     ({"x", "z", "w"}, set(), [("=", _X, _HX)], [Var("w")], False, False)),
    (Mismatch, ((_X, _Y), (_Y, _X), (_K, TauPrefix(Deadlock()))),
     ({"x", "y", "z", "w"}, set(), [("!=", _X, _Y)], [Var("w")], True, False)),
    (New, (("z", "w"), (_K, TauPrefix(Deadlock()))),
     ({"w"}, {"z"}, [], [Var("w")], True, False)),
    (Parallel, ((Mismatch(_X, _Y, Deadlock()), TauPrefix(Deadlock())),
                (Send(_X, _HX, _K), Deadlock())),
     ({"x", "y", "z", "w"}, set(), [("!=", _X, _Y)], [_HX, Var("w")], False, False)),
    (Choice, ((_K, TauPrefix(Deadlock())), (Receive(_X, "z", _K), Deadlock())),
     ({"x", "z", "w"}, {"z"}, [], [Var("w"), Var("w")], True, False)),
    (Replicate, ((_K, Deadlock()),),
     ({"z", "w"}, set(), [], [Var("w")], True, True)),
    (TauPrefix, ((Replicate(New("z", Match(_X, _Y, Deadlock()))), Deadlock()),),
     ({"x", "y"}, {"z"}, [("=", _X, _Y)], [], True, True)),
]
WALKS = (free_vars, bound_names, guard_pairs, output_terms, is_pi_fragment,
         has_replication)


@pytest.mark.parametrize("cls,fields,walked", NODES, ids=[c.__name__ for c, *_ in NODES])
def test_node_protocol(cls, fields, walked):
    values = [first for first, _ in fields]
    p, q = cls(*values), cls(*values)
    assert p == q and hash(p) == hash(q)
    for i, (_, other) in enumerate(fields):
        changed = cls(*values[:i], other, *values[i + 1:])
        assert changed != p and p != changed
    twin = {Match: Mismatch, Mismatch: Match}.get(cls)
    if twin is not None:
        assert twin(*values) != p
    with pytest.raises(AttributeError):
        p.continuation = Deadlock()
    with pytest.raises(AttributeError):
        p._hash = 0
    with pytest.raises(TypeError):
        cls(*values, Deadlock())
    if values:
        with pytest.raises(TypeError):
            cls(*values[:-1])
    assert repr(p) == pretty(p)
    for walk, want in zip(WALKS, walked):
        assert walk(p) == want, walk.__name__


@pytest.mark.parametrize("slots,roles", [
    (("channel", "continuation"), "tbp"),   # a role too many
    (("binder", "continuation"), "p"),      # a role too few
    (("left", "right"), "tx"),              # no such role
    (("continuation", "binder"), "pb"),     # a binder after a subprocess
    (("binder", "other"), "bb"),            # two binders
])
def test_roles_that_do_not_fit_the_slots_are_refused(slots, roles):
    with pytest.raises(TypeError):
        type("Bad", (Process,), {"__slots__": slots, "_roles": roles})


def test_substitute_renames_captured_receive_binder():
    # in(z, x). [z = x] tau. 0 with z := x: the channel is outside the
    # binder's scope and takes x; under the binder x is renamed
    p = Receive(Var("z"), "x", Match(Var("z"), Var("x"), TauPrefix(Deadlock())))
    out = substitute(p, Substitution.of({"z": Var("x")}))
    assert isinstance(out, Receive)
    assert out.channel == Var("x")
    assert out.binder != "x"
    guard = out.continuation
    assert (guard.left, guard.right) == (Var("x"), Var(out.binder))


@pytest.mark.parametrize("read,src", [
    pytest.param(parse, src, id=src) for src in [
        "new k. out(a, k). 0",
        "new k, r. new s. {x = pair(k, r)} | out(a, s). 0",
    ]
] + [
    pytest.param(parse_formula, "<a!(v)>[a?hash(v)](x = y => <tau>tt)", id="formula"),
])
def test_parse_tokenizes_once(monkeypatch, read, src):
    calls = []
    tokenize = terms._tokenize

    def counting(text, keywords):
        calls.append(text)
        return tokenize(text, keywords)

    monkeypatch.setattr(terms, "_tokenize", counting)
    read(src)
    assert calls == [src]
