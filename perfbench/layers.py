"""Per-layer spans taken from outside the program.

`Tracer.install` rebinds each listed public function, inside this process
only, in every `polytoric.*` module namespace that holds it (methods are
rebound on their class), so calls made through `from .cone import
cone_facets` style imports are caught too.  Each call records a span
(id, name, start, end, parent id, op id); self time is the span's duration
minus the time covered by its direct child spans.  Spans stay in memory
until `write`; they hold raw wall-clock times.  A function that is missing from the program is reported
as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Layers are the modules.  bitset (hot leaf helper), abelian (negligible),
# sampling (on no user path) and errors (does no work) are not wrapped.
WRAPPED = (
    "cli.main",
    "cli.load_input",
    "polymatroid.Polymatroid.__init__",
    "polymatroid.validate",
    "polymatroid.Multicomplex.validate",
    "polymatroid.lattice_points",
    "polymatroid.Multicomplex.points",
    "structure.closed_inseparable_family",
    "divisors.class_group",
    "divisors.canonical_class",
    "divisors.is_gorenstein",
    "divisors.matroid_unmixed_check",
    "cone.semigroup_generators",
    "cone.cone_facets",
    "cone.normality_witness",
    "cone.class_group_from_cone",
    "cone.canonical_from_cone",
    "crosscheck.compare_paths",
    "families.classify_transversal",
    "families.box_analysis",
    "families.veronese_analysis",
    "report.AnalysisReport.to_json",
    "report.AnalysisReport.to_text",
)

# Result-size counts read from return values: function -> counter name.
COUNTED = {
    "polymatroid.validate": ("polymatroid.violations", lambda r: len(r.violations)),
    "polymatroid.Multicomplex.validate": ("polymatroid.violations", lambda r: len(r.violations)),
    "polymatroid.lattice_points": ("polymatroid.lattice_points.count", len),
    "structure.closed_inseparable_family": ("structure.family_size", len),
    "cone.semigroup_generators": ("cone.generator_count", lambda g: len(g.points)),
    "cone.cone_facets": ("cone.facet_count", len),
}
COUNTERS = tuple(sorted({name for name, _ in COUNTED.values()}))


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id, self seconds)
        self.counts = []  # (op id, counter, value)
        self.absent = set()  # wrapped functions or counters the program lacks
        self._stack = []  # [span id, seconds covered by direct children]
        self._op = None
        self._restore = []

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        for name in WRAPPED:
            module_name, _, qual = name.partition(".")
            try:
                module = importlib.import_module(f"polytoric.{module_name}")
            except ImportError:
                self.absent.add(name)
                continue
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, fn)
            if owner_name:
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "polytoric" or mod_name.startswith("polytoric.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        counted = COUNTED.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], name, start, end, parent, self._op, duration - frame[1]))
            if counted is not None:
                try:
                    counts.append((self._op, counted[0], counted[1](result)))
                except (AttributeError, TypeError):
                    self.absent.add(counted[0])  # the return type changed
            return result

        return traced

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._stack.clear()

    def end_op(self) -> None:
        self._op = None

    # -- aggregation -------------------------------------------------------

    def per_op(self, scales: dict) -> dict:
        """Mean self seconds and calls per op of each wrapped function, and
        mean counter values per op, over the ops in `scales` (op id ->
        factor applied to that op's self times).  Absent functions and
        counters read None."""
        self_s, calls, counters = defaultdict(float), defaultdict(int), defaultdict(int)
        for _, name, _, _, _, op, own in self.spans:
            if op in scales:
                self_s[name] += own * scales[op]
                calls[name] += 1
        for op, counter, value in self.counts:
            if op in scales:
                counters[counter] += value
        k = max(len(scales), 1)
        out = {}
        for name in WRAPPED:
            present = name not in self.absent
            out[f"{name}.self_s"] = self_s[name] / k if present else None
            out[f"{name}.calls"] = calls[name] / k if present else None
        for counter in COUNTERS:
            sources = [f for f, (c, _) in COUNTED.items() if c == counter]
            present = counter not in self.absent and any(f not in self.absent for f in sources)
            out[counter] = counters[counter] / k if present else None
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op, own in sorted(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": own,
                }) + "\n")
