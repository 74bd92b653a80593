"""Workload case lists and their seed-driven substitutes.

Seed 0 runs each workload's reference case list in the listed order.  Any
other seed draws substitutes and shuffles the command order.  Metrics are
compared across runs with different seeds, so a substitute must cost
about what the case it replaces costs: a slot whose pool has no
cost-matched member keeps its reference case on every seed.
Costs below are wall seconds of one fresh-process CLI call at the seed
commit on a 2-core machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI call.  ``slot`` names its place in the workload for per-case metrics."""

    slot: str
    argv: tuple

    @property
    def text(self) -> str:
        return "sqtilings " + " ".join(self.argv)


def _gf(slot: str, s: int, n: int) -> Command:
    return Command(slot, ("gf", "--s", str(s), "--n", str(n)))


# gf-swell slots.  Measured pool costs: s2n8 0.22, s2n9 0.78, s3n9 0.20,
# s3n10 1.4, s3n11 6.2, s4n10 0.11, s4n11 0.12, s4n12 7.8, s5n11 0.12,
# s5n12 0.20, s6n13 0.16, s6n14 0.19.  Only the sparse wide slot has
# substitutes within a few hundredths of a second of its reference case.
GF_SLOTS = (
    ("s2n9", [(2, 9)]),
    ("s3n10", [(3, 10)]),
    ("s4n12", [(4, 12)]),
    ("wide", [(6, 14), (6, 13), (5, 12), (5, 11)]),
)

# tables-long slots: (slot, s, n, flag, reference length, seed jitter).
# The jitter keeps each slot within about 3 % of its reference cost.
TABLE_SLOTS = (
    ("s2n8_mmax", 2, 8, "--m-max", 60, 1),
    ("s3n9_mmax", 3, 9, "--m-max", 80, 1),
    ("s2n8_single", 2, 8, "--m", 200, 3),
)

VERIFY_ARGV = (
    "verify", "--s-max", "6", "--n-max", "14", "--m-max", "14",
    "--oracle-cap", "120",
)
# Enforced check count that VERIFY_ARGV prints at the seed commit.  A change
# must not pass by dropping checks.
VERIFY_CHECKS = 4850

WORKLOADS = ("gf-swell", "tables-long", "verify-wide")


def commands(workload: str, seed: int) -> list:
    """The workload's command list for ``seed``."""
    rng = random.Random(seed)
    if workload == "gf-swell":
        cmds = [
            _gf(slot, *(pool[0] if seed == 0 else rng.choice(pool)))
            for slot, pool in GF_SLOTS
        ]
    elif workload == "tables-long":
        cmds = []
        for slot, s, n, flag, ref, jitter in TABLE_SLOTS:
            length = ref if seed == 0 else ref + rng.randint(-jitter, jitter)
            cmds.append(Command(slot, ("table", "--s", str(s), "--n", str(n), flag, str(length))))
    elif workload == "verify-wide":
        # no substitute pool exists for this workload: every seed runs it
        cmds = [Command("verify", VERIFY_ARGV)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seed != 0:
        rng.shuffle(cmds)
    return cmds
