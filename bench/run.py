#!/usr/bin/env python3
"""CLI-level benchmark of sqtilings.

Run from the root of a source checkout:

    python3 bench/run.py --workload gf-swell --seed 0 --seconds 30 --trace 0

With ``--trace 0`` every command of the workload runs as ``python -m
sqtilings.cli`` in a fresh interpreter, one child at a time, in passes over
the workload's command list until ``--seconds`` are used up.  It reports
the end-to-end metrics: ``wall_s`` and ``cpu_s`` (medians over passes of a
pass's total), ``peak_rss_mib`` (largest child peak RSS) and ``setup_s``
(median time for a fresh interpreter to return from
``sqtilings.cli.build_parser()``).  The three times are scaled to
reference speed (see REFERENCE_JOB); the measured ones are printed too.

With ``--trace 1`` each pass runs every command in a fresh interpreter,
then in this process untraced, traced with spans at the layer boundaries
(see spans.py) and untraced again.  It reports the per-layer metrics,
the tracing overhead and writes the spans to ``.bench_out/``.

Outputs are checked outside the timed region (see checks.py), after a
self-test of the checks.  Human-readable lines go first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures" / "closed_forms"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))

from checks import OutputChecker, run_inprocess, selftest  # noqa: E402
from spans import COUNTS, PER_LAYER, Tracer, instrument, layer_times  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

# Set-up probes and reference jobs run between the commands, so they
# sample the same machine conditions; a run with few commands tops them up
# to MIN_PROBES.
PROBES_PER_COMMAND = 2
MIN_PROBES = 21
# A child still running this long after the run started is killed and
# counted as failed, so that the run ends within its 180 s limit.
HARD_LIMIT_S = 150.0
# The program's lru_caches, cleared before each in-process command.
CACHED = (("engine", "enumerate_states"), ("series", "count_table"), ("series", "row_sum_sequence"))
SETUP_PROBE = (
    "import time\n"
    "from sqtilings.cli import build_parser\n"
    "build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


# A fixed job of dict and big-integer work, shaped like the package's
# polynomial arithmetic but sharing no code with it, timed inside its own
# child next to every command.  The machine's speed drifts by 20-35 % over
# minutes, which the program cannot cause, so times are reported scaled to
# the speed at which this job takes REFERENCE_S: measured seconds times
# REFERENCE_S over the run's median job time.  REFERENCE_S is about the
# job's time on the 2-core Xeon VM of the baseline, so scaled figures read
# close to wall seconds there.
REFERENCE_S = 0.22
REFERENCE_JOB = (
    "import time\n"
    "T = [(i, 3 ** (100 + i)) for i in range(120)]\n"
    "start = time.perf_counter()\n"
    "for _ in range(25):\n"
    "    acc = {}\n"
    "    for i, x in T:\n"
    "        for j, y in T:\n"
    "            acc[i + j] = acc.get(i + j, 0) + x * y\n"
    "print(time.perf_counter() - start)\n"
)


def _now() -> float:
    # CLOCK_MONOTONIC is shared by every process, so a child's reading can
    # be compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns one CLI child at a time and measures it with ``os.wait4``."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.stderr_path = OUT_DIR / "child-stderr.txt"

    def spawn(self, argv) -> dict:
        """Run ``argv`` in a fresh interpreter: wall, cpu, rss, exit code, stdout."""
        with open(self.stderr_path, "wb") as err:
            start = _now()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            # os.kill, not proc.kill: Popen polls first and could reap the
            # child before os.wait4 reads its usage
            timer = threading.Timer(max(0.0, self.deadline - start), _kill, (proc.pid,))
            timer.start()
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = _now() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                proc.stdout.close()
        return {
            "start": start,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
            "stdout": stdout.decode(errors="replace"),
        }

    def cli(self, argv) -> dict:
        return self.spawn([sys.executable, "-m", "sqtilings.cli", *argv])

    def reference_time(self) -> float:
        res = self.spawn([sys.executable, "-c", REFERENCE_JOB])
        if res["code"] != 0:
            raise RuntimeError("reference job failed: " + self.stderr_path.read_text()[-500:])
        return float(res["stdout"])

    def setup_time(self) -> float:
        res = self.spawn([sys.executable, "-c", SETUP_PROBE])
        if res["code"] != 0:
            raise RuntimeError("set-up probe failed: " + self.stderr_path.read_text()[-500:])
        return float(res["stdout"]) - res["start"]


def _summary(values) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _line(name: str, summary: dict, unit: str) -> str:
    return (f"  {name:<26} {summary['median']:12.6f} {unit:<5} "
            f"q1 {summary['q1']:.6f}  q3 {summary['q3']:.6f}  n={summary['n']}")


def _more_passes(started: float, passes: int, seconds: float) -> bool:
    # start another pass while it would end, on average, no more than half
    # a pass past the requested run length
    elapsed = _now() - started
    return elapsed + 0.5 * elapsed / passes < seconds


class Outcome:
    """Per-command pass/fail bookkeeping shared by both modes."""

    def __init__(self, checker: OutputChecker):
        self.checker = checker
        self.attempted = 0
        self.failures = []
        self._checked = {}  # (argv, code, stdout) -> failure reason or None

    def record(self, argv, code: int, stdout: str, reason=None) -> None:
        """Count one command; ``reason`` marks it failed whatever its output."""
        self.attempted += 1
        key = (tuple(argv), code, stdout)
        if key not in self._checked:
            self._checked[key] = self.checker.check(argv, code, stdout)
        reason = reason or self._checked[key]
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")


def run_untraced(cmds, seconds: float, runner: Runner, outcome: Outcome) -> dict:
    runner.setup_time()  # writes bytecode caches; not counted
    setups = []
    refs = []
    results = []  # (pass, command index, result)
    started = _now()
    passes = 0
    while passes == 0 or _more_passes(started, passes, seconds):
        for i, cmd in enumerate(cmds):
            for _ in range(PROBES_PER_COMMAND):
                setups.append(runner.setup_time())
                refs.append(runner.reference_time())
            results.append((passes, i, runner.cli(cmd.argv)))
        passes += 1
    while len(setups) < MIN_PROBES:
        setups.append(runner.setup_time())
        refs.append(runner.reference_time())
    for _, i, res in results:
        outcome.record(cmds[i].argv, res["code"], res["stdout"])

    print(f"{passes} passes over {len(cmds)} commands, one fresh interpreter each")
    for i, cmd in enumerate(cmds):
        walls = [r["wall"] for _, j, r in results if j == i]
        print(_line(cmd.slot, _summary(walls), "s") + f"  {cmd.text}")
    totals = [sum(r["wall"] for p, _, r in results if p == k) for k in range(passes)]
    wall = _summary(totals)
    cpu = _summary([sum(r["cpu"] for p, _, r in results if p == k) for k in range(passes)])
    setup = _summary(setups)
    rss = max(r["rss_mib"] for _, _, r in results)
    print("end-to-end (median over passes of the pass total):")
    ref = _summary(refs)
    scale = REFERENCE_S / ref["median"]
    print(_line("wall_s (measured)", wall, "s"))
    print(_line("cpu_s (measured)", cpu, "s"))
    print(_line("setup_s (measured)", setup, "s"))
    print(f"  {'peak_rss_mib':<26} {rss:12.6f} MiB")
    print("  pass walls " + " ".join(f"{x:.4f}" for x in totals))
    print(_line("reference job", ref, "s"))
    print(f"scaled to the speed at which the reference job takes {REFERENCE_S} s (x {scale:.4f}):")
    metrics = {
        "wall_s": (wall["median"] * scale, "s"),
        "cpu_s": (cpu["median"] * scale, "s"),
        "peak_rss_mib": (rss, "MiB"),
        "setup_s": (setup["median"] * scale, "s"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:12.6f} {unit}")
    return metrics


def _clear_caches() -> None:
    """Empty the program's lru_caches so no command starts warm."""
    from sqtilings import engine, series

    for owner, name in CACHED:
        fn = getattr(engine if owner == "engine" else series, name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _timed_inprocess(argv) -> tuple:
    _clear_caches()
    gc.collect()
    start = time.perf_counter()
    code, stdout = run_inprocess(argv)
    return time.perf_counter() - start, code, stdout


def run_traced(cmds, seconds: float, runner: Runner, outcome: Outcome, label: str,
               problems: list) -> dict:
    from sqtilings import series

    tracer = Tracer()
    slots = {i: cmd.slot for i, cmd in enumerate(cmds)}
    per_pass = []  # (times, counts, subprocess wall, plain in-process, traced in-process)
    started = _now()
    passes = 0
    while passes == 0 or _more_passes(started, passes, seconds):
        counts = dict.fromkeys(COUNTS, 0)
        sub_wall = plain_wall = traced_wall = 0.0
        first_span = len(tracer.spans)
        for i, cmd in enumerate(cmds):
            sub = runner.cli(cmd.argv)
            # untraced runs on both sides of the traced one, so warm-up and
            # drift do not land on one side of the overhead
            before, code, plain_out = _timed_inprocess(cmd.argv)
            tracer.begin_command(passes, i)
            with instrument(tracer):
                traced, traced_code, traced_out = _timed_inprocess(cmd.argv)
            after, after_code, after_out = _timed_inprocess(cmd.argv)
            plain = (before + after) / 2
            cache_info = getattr(series.count_table, "cache_info", None)
            if cache_info is not None:
                info = cache_info()
                tracer.counts["series.cache_hits"] = info.hits
                tracer.counts["series.cache_misses"] = info.misses
            for key, value in tracer.counts.items():
                counts[key] = max(counts[key], value) if key.endswith("bits") else counts[key] + value
            same = ((sub["code"], sub["stdout"]) == (code, plain_out)
                    == (traced_code, traced_out) == (after_code, after_out))
            outcome.record(cmd.argv, sub["code"], sub["stdout"],
                           None if same else "in-process output differs from the CLI's")
            sub_wall += sub["wall"]
            plain_wall += plain
            traced_wall += traced
        times = layer_times(tracer.spans[first_span:], slots)
        per_pass.append((times, counts, sub_wall, plain_wall, traced_wall))
        passes += 1

    for k in range(1, passes):
        if per_pass[k][1] != per_pass[0][1]:
            problems.append(f"count metrics of pass {k} differ from pass 0")
    for name in sorted(tracer.missing):
        print(f"warning: {name} not found, its spans are missing", file=sys.stderr)

    counts = per_pass[0][1]
    swept = counts["series.rows_swept"]
    overhead = _summary([p[2] - p[3] for p in per_pass])
    trace_cost = _summary([p[4] / p[3] - 1.0 for p in per_pass])
    derived = {
        "series.useful_frac": counts["series.rows_useful"] / swept if swept else 0.0,
        "cli.process_overhead_s": overhead["median"],
        "trace.overhead_frac": trace_cost["median"],
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        else:
            value = statistics.median(p[0][name] for p in per_pass)
        metrics[name] = (value, unit)

    print(f"{passes} traced passes over {len(cmds)} commands")
    print(_line("untraced subprocess wall", _summary([p[2] for p in per_pass]), "s"))
    print(_line("untraced in-process wall", _summary([p[3] for p in per_pass]), "s"))
    print(_line("traced in-process wall", _summary([p[4] for p in per_pass]), "s"))
    print(_line("trace overhead (traced/untraced-1)", trace_cost, ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:.6g} {unit}")

    path = OUT_DIR / f"spans-{label}.jsonl"
    with open(path, "w") as fh:
        for sid, parent, name, start, end, p, cmd in tracer.spans:
            fh.write(json.dumps({
                "id": sid, "parent": parent, "name": name, "start": start, "end": end,
                "pass": p, "command": cmds[cmd].text,
            }) + "\n")
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "sqtilings" / "cli.py", FIXTURES) if not p.exists()]
    if missing:
        print("error: run from a sqtilings source checkout; missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    cmds = commands(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    checker = OutputChecker(FIXTURES)
    outcome = Outcome(checker)
    problems = selftest(checker)
    runner = Runner(_now() + HARD_LIMIT_S)
    if args.trace:
        label = f"{args.workload}-seed{args.seed}"
        metrics = run_traced(cmds, args.seconds, runner, outcome, label, problems)
    else:
        metrics = run_untraced(cmds, args.seconds, runner, outcome)

    failed = len(outcome.failures)
    print(f"failed_frac {failed / outcome.attempted:.6f} ({failed} of {outcome.attempted} commands)")
    for line in problems + outcome.failures[:20]:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": not problems and not outcome.failures,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
