"""Spans around crspec's layers, recorded from outside the program.

``Tracer`` replaces each traced function or method with a wrapper under
every name the library looks it up by: the defining module's attribute,
every other crspec module that imported it (``crspec.relations.normalize``
as well as ``crspec.sets.normalize``), the ``crspec`` package itself, and
the class attribute for methods.  Each call records one span -- name, start,
end and parent -- in flat arrays kept in memory; ``write`` stores them when
the run ends.  Self time is a span's duration minus the time its child spans
cover, summed per name; calls are span counts per name.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (span name, module, attribute) for every traced entry point.
TARGETS = (
    ("sets.normalize", "sets", "normalize"),
    ("sets.interval_hausdorff", "sets", "IntervalSpace.hausdorff"),
    ("sets.interval_set_distance", "sets", "IntervalSpace.set_distance"),
    ("sets.finite_hausdorff", "sets", "FiniteMetricSpace.hausdorff"),
    ("sets.finite_set_distance", "sets", "FiniteMetricSpace.set_distance"),
    ("relations.box_image", "relations", "BoxRelation.image"),
    ("relations.finite_image", "relations", "FiniteRelation.image"),
    ("relations.orbit_segment", "relations", "BoxRelation.orbit_segment"),
    ("relations.orbit_segment", "relations", "FiniteRelation.orbit_segment"),
    ("relations.cell_decomposition", "relations", "cell_decomposition"),
    ("relations.iterate_automaton", "relations", "iterate_automaton"),
    ("specifications.spec_build", "specifications", "Specification.build"),
    ("specifications.spec_build", "specifications", "InitialSpecification.build"),
    ("specifications.search", "specifications", "find_tracer"),
    ("specifications.search", "specifications", "find_initial_tracer"),
    ("specifications.check", "specifications", "check_trace"),
    ("specifications.check", "specifications", "check_initial_trace"),
    ("specifications.derive", "specifications", "derive_initial"),
    ("specifications.lift", "specifications", "lift_tracer"),
    ("verdicts.refute", "verdicts", "refute_property"),
    ("verdicts.certify", "verdicts", "certify_common_image"),
    ("verdicts.certify", "verdicts", "certify_full_image"),
    ("verdicts.certify", "verdicts", "certify_eventual_hausdorff"),
    ("verdicts.certify", "verdicts", "certify_trivial_fiber"),
    ("verdicts.suite", "verdicts", "implication_suite"),
    ("mahavier.words", "mahavier", "ShiftSpace.admissible_words"),
    ("mahavier.sup_metric", "mahavier", "ShiftSpace.sup_metric"),
    ("mahavier.splice", "mahavier", "ShiftSpace.splice_tracer"),
    ("mahavier.trace", "mahavier", "ShiftSpace.trace_check"),
    ("mahavier.mixing", "mahavier", "mixing_index"),
    ("scenario.parse", "scenario", "parse_scenario"),
    ("cli.main", "cli", "main"),
    ("cli.run", "cli", "run"),
    ("cli.render_human", "cli", "render_human"),
    ("cli.render_json", "cli", "render_json"),
)
RANDGEN = "randgen"  # every function defined in crspec.randgen, as one layer

# Reported per-layer metrics: span names with calls and self time, span names
# with self time only, and the counts the wrappers gather.
CALLS_AND_SELF = (
    "sets.normalize", "sets.interval_hausdorff", "sets.interval_set_distance",
    "sets.finite_hausdorff", "sets.finite_set_distance",
    "relations.box_image", "relations.orbit_segment", "relations.finite_image",
    "relations.cell_decomposition", "relations.iterate_automaton",
    "specifications.spec_build", "specifications.search", "specifications.check",
    "verdicts.refute", "verdicts.certify", "mahavier.words", "mahavier.sup_metric",
    "scenario.parse",
)
SELF_ONLY = (
    "verdicts.suite", "mahavier.splice", "mahavier.mixing", RANDGEN, "cli.run", "cli.render_json",
)


class Tracer:
    """Install with ``with Tracer(crspec):``; spans accumulate until ``write``."""

    def __init__(self, crspec):
        self.crspec = crspec
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.current = -1
        self.kept = {}  # search span -> checks whose report the result keeps
        self.regions = 0
        self.words_built = 0
        self.report_bytes = 0
        self._restore = []

    # -- installing ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, post=None):
        name_id = self._id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        now = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(tracer.current)
            starts.append(now())
            ends.append(0)
            tracer.current = i
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = now()
                tracer.current = parents[i]
            if post is not None:
                post(i, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install(self, name, module, attr, post=None):
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__.get(leaf)
        if original is None:
            print(f"tracing: {module.__name__}.{attr} is gone; {name} reads 0", file=sys.stderr)
            return
        if isinstance(original, classmethod):
            self._replace(owner, leaf, classmethod(self.wrap(name, original.__func__, post)))
            return
        traced = self.wrap(name, original, post)
        if path:
            self._replace(owner, leaf, traced)
            return
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, traced)

    def _modules(self):
        return [m for n, m in sys.modules.items() if m is not None and (n == "crspec" or n.startswith("crspec."))]

    def __enter__(self):
        mods = {m.__name__.rpartition(".")[2]: m for m in self._modules()}
        relations = mods["relations"]
        cells = getattr(relations, "cell_decomposition", None)

        def count_search(i, args, result):
            relation = args[0]
            if isinstance(relation, relations.FiniteRelation):
                self.regions += relation.space.n
            elif cells is not None:
                self.regions += len(cells(relation).cells)
            self.kept[i] = len(result.failures) if hasattr(result, "failures") else 1

        def count_words(i, args, result):
            self.words_built += len(result)

        def count_bytes(i, args, result):
            self.report_bytes += len(result.encode("utf-8"))

        posts = {"specifications.search": count_search, "mahavier.words": count_words, "cli.render_json": count_bytes}
        for name, module, attr in TARGETS:
            self._install(name, mods[module], attr, posts.get(name))
        randgen = mods["randgen"]
        for attr, value in list(vars(randgen).items()):
            if callable(value) and getattr(value, "__module__", None) == randgen.__name__ and not isinstance(value, type):
                self._install(RANDGEN, randgen, attr)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def op(self, name: str, run):
        """A root span around one operation; its spans share its index as request id."""
        return self.wrap(f"op.{name}", run)

    # -- results ------------------------------------------------------------

    def write(self, path):
        """A JSON header line, then the raw name, parent, start and end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [["name", "H"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
        }
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)

    def metrics(self) -> dict:
        n = len(self.span_name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            calls[names[i]] += 1
            self_ns[names[i]] += ends[i] - starts[i] - child[i]

        # A check span counts toward the nearest enclosing search span.
        search_id = self.name_ids.get("specifications.search", -1)
        check_id = self.name_ids.get("specifications.check", -1)
        enclosing = array("i", [-1]) * n
        made = 0
        for i in range(n):
            p = parents[i]
            enclosing[i] = i if names[i] == search_id else (enclosing[p] if p >= 0 else -1)
            if names[i] == check_id and enclosing[i] >= 0:
                made += 1
        kept = sum(self.kept.values())

        def calls_of(name):
            return calls[self.name_ids[name]] if name in self.name_ids else 0

        def self_ms(name):
            return self_ns[self.name_ids[name]] / 1e6 if name in self.name_ids else 0.0

        out = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = {"value": calls_of(name), "unit": "count"}
            out[f"{name}.self_ms"] = {"value": self_ms(name), "unit": "ms"}
        for name in SELF_ONLY:
            out[f"{name}.self_ms"] = {"value": self_ms(name), "unit": "ms"}
        out["specifications.regions"] = {"value": self.regions, "unit": "count"}
        out["specifications.useful_check_ratio"] = {"value": kept / made if made else 0.0, "unit": "ratio"}
        out["mahavier.words.built"] = {"value": self.words_built, "unit": "count"}
        out["cli.report_bytes"] = {"value": self.report_bytes, "unit": "bytes"}
        out["trace.spans"] = {"value": n, "unit": "count"}
        return out
