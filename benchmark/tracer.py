"""Spans around the engine's layer entry points, recorded from outside.

``Tracer.install`` replaces the module-global names that callers look up
(for example ``aft.cli.kripke_kleene`` and ``aft.convex.hull``) and the
methods ``Approximator.apply`` and ``PowersetLattice.interval`` with timing
wrappers, and ``uninstall`` puts the originals back. No engine file changes.

Every call of a wrapped name is timed against a stack, so each layer's self
time (a span's duration minus the time its child spans cover) is exact.
Coarse calls also append a span record ``(id, name, start, end, parent,
instance)``; the hot leaves (``approx.apply``, ``lattice.interval`` and the
stable-operator evaluation ``fixpoints.revise``) run millions of times, so
they are folded into counts and busy time on their caller instead of being
kept one by one. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import aft.adf
import aft.cli
import aft.convex
import aft.fixpoints
import aft.lp
from aft.approx import Approximator
from aft.lattice import PowersetLattice

LAYERS = ("lp", "adf", "approx", "lattice", "fixpoints", "convex", "cli")

SCANS = ("fixpoints.supported", "fixpoints.stable", "fixpoints.partial_stable")

# (module, global name, span name): the names the CLI and the fixpoint
# routines call through. The same function reached through two modules gets
# the same span name.
COARSE = (
    (aft.cli, "main", "cli.main"),
    (aft.cli, "parse_program", "lp.parse"),
    (aft.lp, "parse_program", "lp.parse"),
    (aft.cli, "program_lattice", "lp.build"),
    (aft.cli, "fitting", "lp.build"),
    (aft.cli, "parse_adf", "adf.parse"),
    (aft.cli, "PowersetLattice", "adf.build"),
    (aft.cli, "adf_approximator", "adf.build"),
    (aft.adf, "program_to_adf", "adf.from_program"),
    (aft.cli, "ultimate", "approx.ultimate"),
    (aft.cli, "kripke_kleene", "fixpoints.kk"),
    (aft.cli, "well_founded", "fixpoints.wf"),
    (aft.cli, "supported_fixpoints", "fixpoints.supported"),
    (aft.cli, "stable_models", "fixpoints.stable"),
    (aft.cli, "partial_stable_fixpoints", "fixpoints.partial_stable"),
    (aft.cli, "convex_kripke_kleene", "convex.kk"),
    (aft.convex, "hull", "convex.hull"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.instance = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._next_id = 0
        self._inside: Counter = Counter()
        self._saved: list[tuple] = []

    # -- timing core ---------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        self._inside[name] += 1
        return frame

    def _leave(self, frame, record):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child, span_id = frame
        self._inside[name] -= 1
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if record:
            parent_id = parent[3] if parent is not None else None
            self.spans.append((span_id, name, start, end, parent_id, self.instance))

    def _coarse(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, True)
            tracer._observe(name, out)
            return out

        return traced

    def _observe(self, name, out):
        if name == "fixpoints.kk":
            self.counts["fixpoints.kk_steps"] += len(out[1]) - 1
        elif name == "fixpoints.wf":
            self.counts["fixpoints.wf_steps"] += len(out[1]) - 1
        elif name in SCANS:
            self.counts["fixpoints.scan_found"] += len(out)

    # -- hot leaves ----------------------------------------------------------

    def _apply(self, fn):
        tracer = self

        def apply(approximator, lower, upper):
            counts = tracer.counts
            memo = getattr(approximator, "_memo", None)
            if memo is not None and (lower, upper) in memo:
                counts["approx.memo_hits"] += 1
            if tracer._inside["fixpoints.wf"]:
                counts["fixpoints.wf_applies"] += 1
            stack = tracer._stack
            if stack and stack[-1][0] == "fixpoints.supported":
                counts["fixpoints.scan_candidates"] += 1
            frame = tracer._enter("approx.apply")
            try:
                return fn(approximator, lower, upper)
            finally:
                tracer._leave(frame, False)

        return apply

    def _interval(self, fn):
        tracer = self

        def interval(lattice, x, y):
            frame = tracer._enter("lattice.interval")
            try:
                out = fn(lattice, x, y)
            finally:
                tracer._leave(frame, False)
            tracer.counts["lattice.interval_elems"] += len(out)
            return out

        return interval

    def _revise(self, fn):
        tracer = self

        def revise(a, lower, upper):
            inside = tracer._inside
            if inside["fixpoints.stable"] or inside["fixpoints.partial_stable"]:
                tracer.counts["fixpoints.scan_candidates"] += 1
            frame = tracer._enter("fixpoints.revise")
            try:
                return fn(a, lower, upper)
            finally:
                tracer._leave(frame, False)

        return revise

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for module, attr, name in COARSE:
            self._patch(module, attr, self._coarse(getattr(module, attr), name))
        self._patch(Approximator, "apply", self._apply(Approximator.apply))
        self._patch(PowersetLattice, "interval", self._interval(PowersetLattice.interval))
        self._patch(aft.fixpoints, "_stable_raw", self._revise(aft.fixpoints._stable_raw))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".")[0]] += seconds
        return out

    def metrics(self, wall_s: float, untraced_wall_s: float, output_bytes: int) -> dict:
        """Every per-layer metric, as name -> (value, unit)."""
        c = self.counts
        calls = self.calls
        tot = self.total_s
        applies = calls["approx.apply"]
        candidates = c["fixpoints.scan_candidates"]
        scan_s = sum(tot[n] for n in SCANS)
        out = {
            "approx.apply_calls": (applies, "count"),
            "approx.apply_distinct": (applies - c["approx.memo_hits"], "count"),
            "approx.memo_hit_ratio": (c["approx.memo_hits"] / applies if applies else 0.0, "ratio"),
            "approx.apply_s": (self.self_s["approx.apply"], "s"),
            "fixpoints.wf_steps": (c["fixpoints.wf_steps"], "count"),
            "fixpoints.wf_applies": (c["fixpoints.wf_applies"], "count"),
            "fixpoints.wf_s": (tot["fixpoints.wf"], "s"),
            "fixpoints.kk_steps": (c["fixpoints.kk_steps"], "count"),
            "fixpoints.kk_s": (tot["fixpoints.kk"], "s"),
            "fixpoints.scan_s": (scan_s, "s"),
            "fixpoints.scan_candidates": (candidates, "count"),
            "fixpoints.scan_found": (c["fixpoints.scan_found"], "count"),
            "fixpoints.scan_yield": (c["fixpoints.scan_found"] / candidates if candidates else 0.0, "ratio"),
            "lp.parse_calls": (calls["lp.parse"], "count"),
            "lp.parse_s": (tot["lp.parse"], "s"),
            "lp.build_s": (tot["lp.build"], "s"),
            "lattice.interval_calls": (calls["lattice.interval"], "count"),
            "lattice.interval_elems": (c["lattice.interval_elems"], "count"),
            "lattice.interval_s": (tot["lattice.interval"], "s"),
            "convex.kk_s": (tot["convex.kk"], "s"),
            "convex.hull_calls": (calls["convex.hull"], "count"),
            "convex.hull_s": (tot["convex.hull"], "s"),
            "adf.parse_s": (tot["adf.parse"], "s"),
            "adf.build_s": (tot["adf.build"], "s"),
            "adf.from_program_s": (tot["adf.from_program"], "s"),
            "cli.main_s": (tot["cli.main"], "s"),
            "cli.render_self_s": (self.self_s["cli.main"], "s"),
            "cli.output_bytes": (output_bytes, "bytes"),
            "trace.wall_s": (wall_s, "s"),
            "trace.overhead_ratio": (wall_s / untraced_wall_s, "ratio"),
        }
        for layer, seconds in self.layer_self_s().items():
            out[f"{layer}.self_s"] = (seconds, "s")
        return out

    def write(self, path):
        """Span records as JSON lines, written once at the end."""
        keys = ("id", "name", "start", "end", "parent", "instance")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
