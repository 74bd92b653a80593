#!/usr/bin/env python3
"""Mutation probe: which single-site changes to a module does the suite miss?

Each mutant changes one site of the module: an arithmetic or bitwise
operator, a comparison, or an int constant (raised by one).  The sites are
a seeded random sample of all candidates.  Every mutant is written into a
copy of the tree and the tier-1 suite runs against it with ``-x``; a
mutant that passes the suite survives.  The working tree is never touched.

    python3 tools/mutation_probe.py poly gfun

Each module gets ``SITES`` sites for each seed in ``SEEDS``.  The clean
suite's time goes to stdout, then one line per mutant, then the kill
count.  A mutant that runs ``SLOWDOWN`` times as long as the clean suite
(and at least ``FLOOR`` seconds) counts as killed, and so does one that
runs out of ``MEMORY`` bytes of address space: a mutant that stops a
budget charging can otherwise run for minutes or build gigabytes.  No
bytecode is written, so every mutant is compiled from its own source.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SITES = 12  # per module and seed
SEEDS = (1, 2)
SLOWDOWN = 10  # a mutant's time limit, as a multiple of the clean suite's
FLOOR = 60.0  # seconds, the least time limit
MEMORY = 3 * 2**30  # bytes of address space per suite run

_BINOP = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.BitOr: ast.BitXor, ast.BitXor: ast.BitOr,
    ast.BitAnd: ast.BitOr,
}
_CMPOP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}


def sites(tree: ast.AST) -> list:
    """(node, field index, description) for every mutable site, in walk order."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BINOP:
            new = _BINOP[type(node.op)]
            out.append((node, None, f"{type(node.op).__name__} -> {new.__name__}"))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _CMPOP:
                    out.append((node, i, f"{type(op).__name__} -> {_CMPOP[type(op)].__name__}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, None, f"{node.value} -> {node.value + 1}"))
    return out


def mutate(node: ast.AST, index) -> None:
    if isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.Compare):
        node.ops[index] = _CMPOP[type(node.ops[index])]()
    else:
        node.op = _BINOP[type(node.op)]()


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_suite(tree_dir: Path, timeout=None) -> bool:
    """True when tier-1 passes on the copy within ``timeout`` seconds."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "tests"]
    # a .pyc is checked only by source mtime and size, which an operator or
    # constant swap keeps, so a cached mutant could stand in for the next one
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(cmd, cwd=tree_dir, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/sqtilings")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out"))
        start = time.perf_counter()
        if not run_suite(copy):
            print("the unmutated tree fails the suite", file=sys.stderr)
            return 2
        clean = time.perf_counter() - start
        timeout = max(FLOOR, SLOWDOWN * clean)
        print(f"clean suite: {clean:.1f} s; a mutant's limit: {timeout:.0f} s", flush=True)
        killed = total = 0
        for module in args.modules:
            path = copy / "src" / "sqtilings" / f"{module}.py"
            source = path.read_text()
            count = len(sites(ast.parse(source)))
            chosen = set()
            for seed in SEEDS:
                chosen.update(random.Random(seed).sample(range(count), min(SITES, count)))
            for pick in sorted(chosen):
                tree = ast.parse(source)
                node, index, what = sites(tree)[pick]
                mutate(node, index)
                path.write_text(ast.unparse(tree))
                survived = run_suite(copy, timeout)
                path.write_text(source)
                total += 1
                killed += not survived
                verdict = "SURVIVED" if survived else "killed"
                print(f"{verdict:8} {module}.py:{node.lineno}  {what}", flush=True)
        print(f"{killed}/{total} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
