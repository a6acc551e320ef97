"""Exhaustive innermost rewriting on terms: the loop behind `terms.normalize`.

`terms.normalize` calls `normalize` here on a miss of the theory's
normal-form table.  It is a module of its own so that profilers can time the
rewriting apart from the table lookups around it.
"""

from __future__ import annotations

from . import terms

# One implementation remains; the name is kept because benchmark reports
# record it as provenance.
IMPLEMENTATION = "python"


def normalize(t: terms.Term, th: terms.Theory) -> terms.Term:
    """Unique normal form of `t` under the theory's convergent rules.

    Rules are tried in order at each position, innermost first.  Raises
    `terms.NonTermination` after more than `th.rewrite_ceiling` rule
    applications.  A subterm that no rule rewrites is returned as the same
    object, so an already-normal `t` comes back as itself."""
    steps = 0

    def norm(u: terms.Term) -> terms.Term:
        nonlocal steps
        while type(u) is terms.App:
            args = tuple(map(norm, u.args))
            if args != u.args:
                u = terms.App(u.fn, args)
            for rule in th.rules:
                if rule.lhs.fn != u.fn:
                    continue
                bindings = terms.match_term(rule.lhs, u, rule.variables())
                if bindings is not None:
                    break
            else:
                return u
            steps += 1
            if steps > th.rewrite_ceiling:
                raise terms.NonTermination(
                    f"rewriting of {terms.render_term(t)} exceeded "
                    f"{th.rewrite_ceiling} steps in theory {th.name}")
            u = terms.apply_map(rule.rhs, bindings)
        return u

    return norm(t)
