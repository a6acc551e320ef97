"""Fresh identifier generation.

All identifiers live in one global namespace (names are just variables bound
by `new`).  Every checking session owns a single monotone counter; generated
identifiers render as ``base#N``.  Source identifiers may contain ``#`` too,
since witness files hold generated names, so a session first reserves the
names of its input (`NameGen.reserve`) and mints past their counters.
"""

from __future__ import annotations

import itertools


class NameGen:
    """Monotone fresh-name source, confined to one checking session."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def fresh(self, base: str = "x") -> str:
        base = base.split("#", 1)[0] or "x"
        return f"{base}#{next(self._counter)}"

    def reserve(self, names) -> None:
        """Skip past any counters already present in `names` so freshly
        minted identifiers cannot collide with them."""
        top = 0
        for name in names:
            if "#" in name:
                tail = name.rsplit("#", 1)[1]
                if tail.isdigit():
                    top = max(top, int(tail))
        if top:
            current = next(self._counter)
            start = max(current, top + 1)
            self._counter = itertools.count(start)
