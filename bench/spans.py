"""Spans around the calls where one sqtilings layer calls another.

``instrument`` replaces module-level functions of the program with
wrappers for the length of a ``with`` block and puts the originals back
after it; the program's files are not changed.  Each wrapper records a span
(id, parent, name, start, end) plus counts taken from the call's arguments
and result.  Counts are taken after the span ends, so they cost the
traced run time but not the span.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time

# Every per-layer metric the traced run reports, with its unit.  Layers a
# workload does not call report 0.
PER_LAYER = {
    "engine.enumerate_s": "s",
    "engine.states": "count",
    "engine.edges": "count",
    "gfun.build_s": "s",
    "gfun.nnz": "count",
    "gfun.eliminate_s": "s",
    "gfun.eliminate_s.s2n9": "s",
    "gfun.eliminate_s.s3n10": "s",
    "gfun.eliminate_s.s4n12": "s",
    "gfun.eliminate_s.wide": "s",
    "gfun.out_terms": "count",
    "gfun.out_coeff_bits": "bits",
    "poly.render_s": "s",
    "series.sweep_s": "s",
    "series.sweep_s.s2n8_mmax": "s",
    "series.sweep_s.s3n9_mmax": "s",
    "series.sweep_s.s2n8_single": "s",
    "series.sweep_calls": "count",
    "series.rows_swept": "count",
    "series.rows_useful": "count",
    "series.useful_frac": "ratio",
    "series.out_coeff_bits": "bits",
    "series.cache_hits": "count",
    "series.cache_misses": "count",
    "oracle.brute_s": "s",
    "oracle.calls": "count",
    "oracle.cells": "count",
    "identities.self_s": "s",
    "identities.checks": "count",
    "cli.self_s": "s",
    "cli.process_overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly from pass to pass and run to run.
COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "bits"))


def _max_bits(values) -> int:
    return max((abs(c).bit_length() for c in values), default=0)


class Tracer:
    """In-memory span recorder plus the per-command counters the spans feed."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, pass, command]
        self.missing = set()  # wrap targets the program no longer has
        self._stack = []
        self.pass_index = 0
        self.command_index = 0
        self.counts = {}
        self._graphs = set()
        self._rows = set()

    def begin_command(self, pass_index: int, command_index: int) -> None:
        self.pass_index = pass_index
        self.command_index = command_index
        self.counts = dict.fromkeys(COUNTS, 0)
        self._graphs = set()
        self._rows = set()

    def span(self, name: str, fn, measure=None):
        """``fn`` wrapped so each call records a span, then runs ``measure``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(self.spans), self._stack[-1] if self._stack else None,
                   name, time.perf_counter(), None, self.pass_index, self.command_index]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                measure(args, result)
            return result

        return wrapper

    # counters, one per wrapped boundary

    def _on_graph(self, args, graph) -> None:
        key = (graph.s, graph.n)
        if key not in self._graphs:
            self._graphs.add(key)
            self.counts["engine.states"] += graph.dim
            self.counts["engine.edges"] += sum(len(e) for e in graph.edges)

    def _on_build(self, args, mat) -> None:
        self.counts["gfun.nnz"] += len(mat.entries)

    def _on_eliminate(self, args, ratio) -> None:
        num, den = ratio.num.terms, ratio.den.terms
        self.counts["gfun.out_terms"] += len(num) + len(den)
        bits = max(_max_bits(num.values()), _max_bits(den.values()))
        self.counts["gfun.out_coeff_bits"] = max(self.counts["gfun.out_coeff_bits"], bits)

    def _on_sweep(self, args, rows) -> None:
        s, n = args[0], args[1]
        c = self.counts
        c["series.sweep_calls"] += 1
        c["series.rows_swept"] += len(rows)
        # a row is useful the first time this command produces it; sweeping
        # it again is the repeated work a one-sweep route would save
        for m in range(len(rows)):
            if (s, n, m) not in self._rows:
                self._rows.add((s, n, m))
                c["series.rows_useful"] += 1
        if rows:
            c["series.out_coeff_bits"] = max(c["series.out_coeff_bits"], _max_bits(rows[-1].values()))

    def _on_brute(self, args, table) -> None:
        self.counts["oracle.calls"] += 1
        self.counts["oracle.cells"] += args[1] * args[2]

    def _on_verify(self, args, reports) -> None:
        self.counts["identities.checks"] += sum(
            1 for r in reports for c in r.checks if not c.informational
        )

    def targets(self):
        """(owner, attribute, span name, counter) for every wrapped boundary."""
        from sqtilings import cli, identities, poly, series

        return [
            (cli, "enumerate_states", "engine.enumerate", self._on_graph),
            (series, "enumerate_states", "engine.enumerate", self._on_graph),
            (cli, "build_matrix", "gfun.build", self._on_build),
            (cli, "generating_function", "gfun.eliminate", self._on_eliminate),
            (poly.RatFun, "render", "poly.render", None),
            (series, "_flat_entry_sweep", "series.sweep", self._on_sweep),
            (identities, "_flat_entry_sweep", "series.sweep", self._on_sweep),
            (cli, "run_verification", "identities.run", self._on_verify),
            (identities, "brute_force_counts", "oracle.brute", self._on_brute),
            (cli, "main", "cli.main", None),
        ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers for the ``with`` block, then restore."""
    saved = []
    for owner, attr, name, measure in tracer.targets():
        original = owner.__dict__.get(attr)
        if original is None:
            tracer.missing.add(f"{owner.__name__}.{attr}")
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.span(name, original, measure))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_times(spans, slots: dict) -> dict:
    """Per-layer seconds of one pass.

    Layer times are the summed durations of that layer's spans, children
    included; ``*.self_s`` subtract the time covered by direct child spans.
    ``slots`` maps a command index to its workload slot for per-case times.
    """
    child_time: dict = {}
    for sid, parent, name, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = dict.fromkeys((k for k, u in PER_LAYER.items() if u == "s"), 0.0)
    inclusive = {
        "engine.enumerate": "engine.enumerate_s",
        "gfun.build": "gfun.build_s",
        "gfun.eliminate": "gfun.eliminate_s",
        "poly.render": "poly.render_s",
        "series.sweep": "series.sweep_s",
        "oracle.brute": "oracle.brute_s",
    }
    own = {"identities.run": "identities.self_s", "cli.main": "cli.self_s"}
    for sid, parent, name, start, end, _, cmd in spans:
        dur = end - start
        if name in inclusive:
            out[inclusive[name]] += dur
            per_case = f"{inclusive[name]}.{slots[cmd]}"
            if per_case in out:
                out[per_case] += dur
        elif name in own:
            out[own[name]] += dur - child_time.get(sid, 0.0)
    return out
