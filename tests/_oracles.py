"""Reference implementations that tests compare the checker against.

An independent brute-force bounded game for crypto-free, guard-free
processes, written before the main solver and sharing none of its machinery
beyond the AST; the exhaustive payload filter, which enumerates and images
every recipe up to the recipe depth where the checker builds the top
constructor layer from what can interact; and the successors of world moves
and inputs built by make_extended from the substituted state, which walks
every term of the body again where the checker normalizes only the terms
its substitution rebuilds."""

import itertools

from openbisim.syntax import parse_process


class _Mini:
    """(privates, frame tuple((handle, name)), process) for the tiny game."""

    def __init__(self, priv, frame, proc):
        self.priv = frozenset(priv)
        self.frame = tuple(frame)
        self.proc = proc


def _mini_atoms(state, publics):
    out = {}
    for h, n in state.frame:
        out.setdefault(n, h)
    for p in publics:
        out.setdefault(p, p)
    return out  # name -> recipe


def _mini_sig(state, publics):
    atoms = []
    for h, n in state.frame:
        atoms.append(("h", h, n))
    classes = {}
    sig = []
    for _, h, n in atoms:
        if n in classes:
            sig.append(("eq", h, classes[n]))
        else:
            classes[n] = h
        if n in publics:
            sig.append(("pub", h, n))
    return tuple(sig)


def _mini_steps(state, publics, fresh_counter):
    from openbisim.syntax import (
        Choice as C, Deadlock as D, New as N, Parallel as P, Receive as I,
        Send as O, TauPrefix as T,
    )

    def plain(proc, priv):
        # returns list of (kind, chan, payload/binder, residual, newpriv)
        if isinstance(proc, D):
            return []
        if isinstance(proc, T):
            return [("tau", None, None, proc.continuation, priv)]
        if isinstance(proc, O):
            return [("out", proc.channel.name, proc.payload.name, proc.continuation, priv)]
        if isinstance(proc, I):
            return [("in", proc.channel.name, proc.binder, proc.continuation, priv)]
        if isinstance(proc, N):
            nm = f"{proc.binder}${next(fresh_counter)}"
            from openbisim.terms import Substitution, Var
            from openbisim.syntax import substitute
            cont = substitute(proc.continuation, Substitution.of({proc.binder: Var(nm)}))
            inner = plain(cont, priv | {nm})
            out = []
            for kind, ch, pay, res, pv in inner:
                if ch == nm:
                    continue
                out.append((kind, ch, pay, res, pv))
            return out
        if isinstance(proc, C):
            return plain(proc.left, priv) + plain(proc.right, priv)
        if isinstance(proc, P):
            l = plain(proc.left, priv)
            r = plain(proc.right, priv)
            out = []
            for kind, ch, pay, res, pv in l:
                out.append((kind, ch, pay, P(res, proc.right), pv))
            for kind, ch, pay, res, pv in r:
                out.append((kind, ch, pay, P(proc.left, res), pv))
            for ok, och, opay, ores, opv in l:
                for ik, ich, ipay, ires, ipv in r:
                    if ok == "out" and ik == "in" and och == ich:
                        from openbisim.terms import Substitution, Var
                        from openbisim.syntax import substitute
                        out.append(("tau", None, None,
                                    P(ores, substitute(ires, Substitution.of({ipay: Var(opay)}))),
                                    opv | ipv))
                    if ik == "out" and ok == "in" and och == ich:
                        from openbisim.terms import Substitution, Var
                        from openbisim.syntax import substitute
                        out.append(("tau", None, None,
                                    P(substitute(ores, Substitution.of({opay: Var(ipay)})), ires),
                                    opv | ipv))
            return out
        raise TypeError(proc)

    return plain(state.proc, state.priv)


def _mini_bisim(a, b, publics, depth, fresh_counter):
    if depth == 0:
        return True
    if _mini_sig(a, publics) != _mini_sig(b, publics):
        return False
    atoms_a, atoms_b = _mini_atoms(a, publics), _mini_atoms(b, publics)

    def observable(state, atoms):
        steps = []
        for kind, ch, pay, res, pv in _mini_steps(state, publics, fresh_counter):
            if kind == "tau":
                steps.append(("tau", None, None, _Mini(pv, state.frame, res)))
            elif kind == "out":
                if ch in state.priv | pv and ch not in atoms:
                    continue
                rec = atoms.get(ch, ch)
                h = f"h{len(state.frame)}"
                steps.append(("out", rec, None, _Mini(pv, state.frame + ((h, pay),), res)))
            else:
                if ch in state.priv | pv and ch not in atoms:
                    continue
                rec = atoms.get(ch, ch)
                payloads = sorted(set(atoms.values()) | set(publics)) + ["?f"]
                for p in payloads:
                    from openbisim.terms import Substitution, Var
                    from openbisim.syntax import substitute
                    concrete = {h: n for h, n in state.frame}.get(p, p)
                    res2 = substitute(res, Substitution.of({pay: Var(concrete)}))
                    steps.append(("in", rec, p, _Mini(pv, state.frame, res2)))
        return steps

    for x, y, ax, ay in ((a, b, atoms_a, atoms_b), (b, a, atoms_b, atoms_a)):
        for kind, rec, pay, succ in observable(x, ax):
            replies = [
                s2 for k2, r2, p2, s2 in observable(y, ay)
                if (k2, r2, p2) == (kind, rec, pay)
            ]
            ok = False
            for r in replies:
                pair = (succ, r) if x is a else (r, succ)
                if _mini_bisim(pair[0], pair[1], publics, depth - 1, fresh_counter):
                    ok = True
                    break
            if not ok:
                return False
    return True


def _oracle_verdict(l, r):
    from openbisim.syntax import free_vars
    pl, pr = parse_process(l), parse_process(r)
    publics = sorted(free_vars(pl) | free_vars(pr))
    a = _Mini(frozenset(), (), pl)
    b = _Mini(frozenset(), (), pr)
    return _mini_bisim(a, b, publics, 6, itertools.count())


def _small_corpus():
    pieces = [
        "0", "tau. 0", "out(a, b). 0", "in(a, x). 0",
        "out(a, b). tau. 0", "in(a, x). out(a, x). 0",
        "new z. out(a, z). 0", "tau. tau. 0",
    ]
    pairs = []
    for l, r in itertools.combinations(pieces, 2):
        pairs.append((l, r))
    pairs += [
        ("out(a, b). 0 | in(a, x). 0", "out(a, b). in(a, x). 0 + in(a, x). out(a, b). 0 + tau. 0"),
        ("new z. out(a, z). 0", "new w. out(a, w). 0"),
        ("out(a, b). 0 + out(a, b). 0", "out(a, b). 0"),
        ("in(a, x). 0 + tau. 0", "tau. 0 + in(a, y). 0"),
    ]
    return pairs


def exhaustive_payload_candidates(a, b, th, cfg, gen_fresh_name, memo=None):
    """bisim._payload_candidates_raw by brute force: every recipe up to the
    recipe depth is enumerated and imaged under both frames, and kept by
    the same rule (a variable, or an image that can interact, and a pair of
    images no kept recipe before it has).  `memo`, when given, keeps the
    recipe lists and the frames' image lists between calls."""
    from openbisim.bisim import _interaction, _publics
    from openbisim.frames import Frame, _recipe_key, enumerate_recipes, recipe_images
    from openbisim.terms import Var

    memo = {} if memo is None else memo
    publics = _publics(a, b)
    frame_a = Frame(frozenset(a.privates), a.frame, a.frame_order)
    frame_b = Frame(frozenset(b.privates), b.frame, b.frame_order)
    _, interacts = _interaction(a, b, th)
    domain = (frame_a.order, publics, gen_fresh_name, cfg.recipe_depth)
    recipes = memo.get(domain)
    if recipes is None:
        recipes = memo[domain] = list(enumerate_recipes(
            frame_a, th, cfg.recipe_depth, publics=publics, fresh=(gen_fresh_name,),
            dedup=False))
    images = []
    for frame in (frame_a, frame_b):
        key = (frame.privates, frame.binding, domain)
        if key not in memo:
            table = recipe_images(frame, recipes, th)
            memo[key] = [table[r] for r in recipes]
        images.append(memo[key])
    fresh = Var(gen_fresh_name)
    seen = {(frame_a.image(fresh, th), frame_b.image(fresh, th))}
    kept = []
    for r, ia, ib in zip(recipes, *images):
        if (ia, ib) in seen:
            continue
        if isinstance(r, Var) or interacts(ia) or interacts(ib):
            seen.add((ia, ib))
            kept.append(r)
    kept.sort(key=_recipe_key)
    return [fresh] + kept


def world_move_successor(ep, mv, th):
    """bisim.apply_world_move by make_extended: the move's substitution
    applied to the frame and the body, then the frame applied to the body
    and every term normalized."""
    from openbisim.syntax import make_extended, substitute
    from openbisim.terms import Substitution, Var

    frame = Substitution.of({x: mv.sigma(t) for x, t in ep.frame.bindings})
    body = substitute(ep.body, mv.sigma, avoid=frozenset(ep.privates))
    if mv.kind == "subst":
        return make_extended(ep.privates, frame, body, th, ep.frame_order)
    frame = Substitution(frame.bindings + ((mv.alias, Var(mv.private)),))
    return make_extended(ep.privates + (mv.private,), frame, body, th,
                         ep.frame_order + (mv.alias,))


def input_successor(schema, payload):
    """lts.InputSchema.instantiate by make_extended."""
    from openbisim.syntax import make_extended, substitute
    from openbisim.terms import Substitution, normalize

    ep, th = schema.state, schema.th
    message = normalize(ep.frame(payload), th)
    body = substitute(schema.residual, Substitution.of({schema.binder: message}),
                      avoid=frozenset(ep.privates))
    return make_extended(ep.privates, ep.frame, body, th, ep.frame_order)
