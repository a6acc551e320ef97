"""Workload definitions: which bundled corpus entries each workload runs.

Every check uses the corpus entry's own theory, ``recipe_depth`` and
``max_depth``.  The expected verdicts are the corpus's hand-written
``expect`` fields; the benchmark never compares against earlier output of
the program.
"""

from __future__ import annotations

import random

# Bisimilar entries, checked and then witness-validated.
HASH_AND_SIGN = ("hash-and-sign",)
PROVE = (
    "server-a-vs-b", "lem-grounded", "blind-without-equation",
    "fixed-servers", "pair-mismatch-worlds", "open-guard", "open-fresh",
)
# Distinguished pairs (run through logic.distinguish) and model-check entries.
REFUTE = (
    "server-a-vs-c", "mobility", "aenc-under-refinement", "lem-choice",
    "blind-forgery", "broken-servers", "om-deadlock", "om-tau", "om-sums",
    "om-outin",
    "attack-on-c", "attack-not-on-a", "lem-holds-on-r", "lem-fails-on-s",
    "blind-attack-trace", "broken-trace-left", "broken-trace-right",
)

# The Bisimilar and the refuting entries share one workload: a sample of
# either alone takes under ten seconds, too short to measure steadily on a
# machine whose speed changes within seconds, and two workloads of runs long
# enough to average that out would not fit the benchmark's time beside the
# hash-and-sign runs.
WORKLOADS = {
    "hash-and-sign": HASH_AND_SIGN,
    "prove-refute": PROVE + REFUTE,
}


def entry_order(workload: str, seed: int) -> list[str]:
    """Entry names in the order one sample runs them: shuffled by the seed."""
    names = list(WORKLOADS[workload])
    random.Random(f"{workload}:{seed}").shuffle(names)
    return names
