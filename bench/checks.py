"""Output checks for the benchmark's CLI commands, run outside the timed region.

Each check recomputes the answer by a route the command did not take:

* ``table``: the series expansion of the committed closed-form fixture for
  the same (s, n);
* ``gf``: ``RatFun.equivalent`` against the fixture when one exists, else the
  series expansion must equal a sweep over the front graph's edges up to
  an order that proves the two rational functions equal;
* ``verify``: exit 0 with the enforced check count of the seed commit, so a
  change cannot pass by dropping checks.

``selftest`` feeds the checks outputs with one count or one coefficient
off by one and fails unless every such output is rejected.
"""

from __future__ import annotations

import contextlib
import io
import re
import traceback
from pathlib import Path

from workloads import VERIFY_CHECKS

_VERIFY_TAIL = re.compile(r"^(\d+) enforced checks: all passed$")
_Z_POWER = re.compile(r"z(?:\^(\d+))?")


def _opt(argv, flag):
    """Integer value of ``flag`` in argv, or None when absent."""
    argv = list(argv)
    return int(argv[argv.index(flag) + 1]) if flag in argv else None


class OutputChecker:
    """Checks CLI output against fixtures and the program's other route."""

    def __init__(self, fixture_dir: Path):
        self.fixture_dir = fixture_dir
        self._expansions: dict = {}

    def check(self, argv, returncode: int, stdout: str):
        """None when the output is right, else a one-line reason."""
        if returncode != 0:
            return f"exit code {returncode}"
        kind = argv[0]
        try:
            if kind == "table":
                return self._check_table(argv, stdout)
            if kind == "gf":
                return self._check_gf(argv, stdout)
            if kind == "verify":
                return self._check_verify(stdout)
        except ValueError as exc:
            return f"unparsable output: {exc}"
        return f"no check for command {kind!r}"

    def _fixture(self, s: int, n: int):
        path = self.fixture_dir / f"s{s}_n{n}.txt"
        if not path.is_file():
            return None
        from sqtilings.poly import RatFun

        return RatFun.parse(path.read_text())

    def _fixture_series(self, s: int, n: int, order: int):
        """Coefficient lists of z^0 .. z^order of the (s, n) fixture."""
        cached = self._expansions.get((s, n))
        if cached is None or len(cached) <= order:
            from sqtilings.gfun import series_expand

            ratio = self._fixture(s, n)
            if ratio is None:
                return None
            cached = [_dense(p.coeffs) for p in series_expand(ratio, order)]
            self._expansions[(s, n)] = cached
        return cached

    def _check_table(self, argv, stdout: str):
        s, n = _opt(argv, "--s"), _opt(argv, "--n")
        m = _opt(argv, "--m")
        lengths = [m] if m is not None else list(range(_opt(argv, "--m-max") + 1))
        expansion = self._fixture_series(s, n, max(lengths))
        if expansion is None:
            return f"no closed-form fixture for s={s} n={n}"
        lines = stdout.splitlines()
        if len(lines) != len(lengths):
            return f"expected {len(lengths)} table lines, got {len(lines)}"
        for m, line in zip(lengths, lines):
            head, counts, total = line.split(" : ")
            if head.split() != [str(s), str(n), str(m)]:
                return f"table header {head!r} does not name s={s} n={n} m={m}"
            counts = [int(c) for c in counts.split()]
            if counts != expansion[m]:
                return f"counts for m={m} differ from the fixture expansion"
            if int(total) != sum(counts):
                return f"row sum for m={m} is not the sum of its counts"
        return None

    def _check_gf(self, argv, stdout: str):
        from sqtilings.engine import enumerate_states
        from sqtilings.gfun import series_expand
        from sqtilings.poly import RatFun

        s, n = _opt(argv, "--s"), _opt(argv, "--n")
        lines = stdout.splitlines()
        if len(lines) != 1:
            return f"expected one line, got {len(lines)}"
        ratio = RatFun.parse(lines[0])
        fixture = self._fixture(s, n)
        if fixture is not None:
            return None if ratio.equivalent(fixture) else "not equivalent to its fixture"
        # The sweep's series is P/Q with deg Q <= dim and deg P < dim, so
        # N/D - P/Q has a numerator of z-degree <= max(deg N, deg D) + dim;
        # agreement up to that order proves N/D = P/Q.
        graph = enumerate_states(s, n)
        order = _z_degree(lines[0]) + graph.dim
        for m, (poly, row) in enumerate(zip(series_expand(ratio, order), _sweep(graph, order))):
            if poly.coeffs != row:
                return f"series coefficient of z^{m} differs from the sweep"
        return None

    def _check_verify(self, stdout: str):
        lines = stdout.splitlines()
        tail = _VERIFY_TAIL.match(lines[-1]) if lines else None
        if tail is None:
            return "verify did not report all checks passed"
        if int(tail.group(1)) != VERIFY_CHECKS:
            return f"{tail.group(1)} enforced checks, the seed commit enforces {VERIFY_CHECKS}"
        return None


def _z_degree(text: str) -> int:
    """Largest power of z written in a rendered polynomial or ratio."""
    return max((int(e or 1) for e in _Z_POWER.findall(text)), default=0)


def _sweep(graph, order: int) -> list:
    """Flat-front t-polynomials for m = 0 .. order, by iterating the graph's edges."""
    vec = {0: {0: 1}}
    rows = [{0: 1}]
    for _ in range(order):
        nxt: dict = {}
        for src, poly in vec.items():
            for dst, k, mult in graph.edges[src]:
                acc = nxt.setdefault(dst, {})
                for e, c in poly.items():
                    acc[e + k] = acc.get(e + k, 0) + c * mult
        vec = nxt
        rows.append(vec.get(0, {}))
    return rows


def _dense(coeffs: dict) -> list:
    """Sparse k -> count as the CLI's trimmed count list."""
    return [coeffs.get(k, 0) for k in range(max(coeffs, default=0) + 1)]


def run_inprocess(argv) -> tuple:
    """(exit code, stdout) of ``sqtilings.cli.main(argv)`` in this process.

    An exception from the program counts as exit code 1, as it would for
    the CLI, so one failing command does not end the run.
    """
    from sqtilings import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    return code, out.getvalue()


def _bump_table(stdout: str) -> str:
    """The table with one count of its middle line raised by one."""
    lines = stdout.splitlines()
    mid = len(lines) // 2
    head, counts, total = lines[mid].split(" : ")
    counts = counts.split()
    counts[len(counts) // 2] = str(int(counts[len(counts) // 2]) + 1)
    lines[mid] = " : ".join([head, " ".join(counts), total])
    return "\n".join(lines) + "\n"


def _bump_gf(stdout: str) -> str:
    """The generating function with one numerator coefficient raised by one."""
    from sqtilings.poly import BiPoly, RatFun

    ratio = RatFun.parse(stdout.splitlines()[0])
    terms = dict(ratio.num.terms)
    key = max(terms)
    terms[key] += 1
    return RatFun(BiPoly(terms), ratio.den).render() + "\n"


SELFTEST_CASES = (
    (("table", "--s", "2", "--n", "8", "--m-max", "12"), _bump_table),
    (("gf", "--s", "3", "--n", "7"), _bump_gf),  # fixture route
    (("gf", "--s", "4", "--n", "10"), _bump_gf),  # series-against-sweep route
)


def selftest(checker: OutputChecker) -> list:
    """Reasons the checks are broken; empty when each perturbation is caught."""
    problems = []
    for argv, bump in SELFTEST_CASES:
        code, stdout = run_inprocess(argv)
        if checker.check(argv, code, stdout) is not None:
            problems.append(f"self-test: correct output of {' '.join(argv)} rejected")
        if checker.check(argv, 0, bump(stdout)) is None:
            problems.append(f"self-test: perturbed output of {' '.join(argv)} accepted")
    verify = ("verify",)
    good = f"{VERIFY_CHECKS} enforced checks: all passed\n"
    for bad in (f"{VERIFY_CHECKS - 1} enforced checks: all passed\n",
                f"{VERIFY_CHECKS} enforced checks: FAILURES above\n"):
        if checker.check(verify, 0, bad) is None:
            problems.append(f"self-test: verify output {bad.strip()!r} accepted")
    if checker.check(verify, 0, good) is not None:
        problems.append("self-test: passing verify output rejected")
    if checker.check(verify, 1, good) is None:
        problems.append("self-test: verify exit code 1 accepted")
    return problems
