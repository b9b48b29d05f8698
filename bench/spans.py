"""Spans around intentrefine's module functions, recorded from outside.

The traced run replaces module attributes with timing wrappers. This sees
every call because the CLI, `refiner.refine` and the verifier call these
functions through module-level names. Nothing under `src/` is edited.

Spans stay in memory. Each keeps its arguments and result, so counts are
derived after the op and deriving them adds nothing to the traced time.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# Public functions at each layer boundary, recorded as "<module>.<function>".
# Some (refine, kb_update, load_catalog) feed no metric of their own; they are
# wrapped so that `cli.self_s` leaves their time out.
TRACED = {
    "cli": ("main",),
    "topology": ("parse_topology", "enumerate_paths"),
    "refiner": ("parse_hspl", "refine", "kb_reconcile", "kb_update", "bind_intent",
                "select_enforcement_set", "build_artifacts", "artifacts_to_json",
                "artifacts_from_json", "load_kb", "save_kb"),
    "extractor": ("extract_indicators", "indicators_to_knowledge"),
    "factbase": ("parse_knowledge", "serialize_knowledge"),
    "capability": ("load_catalog",),
    "converter": ("build_mspl", "serialize_mspl"),
    "translator": ("translate_policy", "rules_file_content"),
    "verifier": ("verify_deployment", "evaluate_flow"),
}


@dataclass(eq=False)
class Span:
    name: str
    parent: Span | None
    start: float
    end: float = 0.0
    child_time: float = 0.0
    args: tuple = ()
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by child spans. Children of one
        span never overlap: the pipeline runs on one thread."""
        return self.duration - self.child_time


class Tracer:
    """Install with `install()`; `take()` returns and clears the spans
    recorded since the last take, in start order."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"intentrefine.{module_name}")
            for name in names:
                original = getattr(module, name)
                self._originals.append((module, name, original))
                setattr(module, name, self._wrap(f"{module_name}.{name}", original))

    def uninstall(self) -> None:
        for module, name, original in self._originals:
            setattr(module, name, original)
        self._originals.clear()

    def take(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans

    def _wrap(self, name: str, fn):
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, clock())
            spans.append(span)
            stack.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = clock()
                stack.pop()
                span.args = args
                if parent is not None:
                    parent.child_time += span.end - span.start

        return traced


def to_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready records; a parent is named by its index."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        {"id": i, "name": s.name, "parent": index.get(id(s.parent)),
         "start": s.start, "end": s.end, "self": s.self_time}
        for i, s in enumerate(spans)
    ]


# --- per-layer metrics ------------------------------------------------------

def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """`<module>.<metric>` values for one op, summed over its calls.

    Times are inclusive span durations, except `cli.self_s`. A ratio whose
    base is zero (no such call in the op) is left out.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def total(*names):
        return sum(s.duration for name in names for s in calls(name))

    def results(name):
        return [s.result for s in calls(name)]

    m: dict[str, float] = {
        "cli.main_s": total("cli.main"),
        "cli.self_s": sum(s.self_time for s in calls("cli.main")),
        "topology.parse_s": total("topology.parse_topology"),
        "topology.nodes": sum(len(t.nodes) for t in results("topology.parse_topology")),
        "topology.enumerate_s": total("topology.enumerate_paths"),
        "topology.enumerate_calls": len(calls("topology.enumerate_paths")),
        "topology.paths": sum(len(p) for p in results("topology.enumerate_paths")),
        "refiner.parse_hspl_s": total("refiner.parse_hspl"),
        "refiner.intents": sum(len(r) for r in results("refiner.parse_hspl")),
        "refiner.kb_reconcile_s": total("refiner.kb_reconcile"),
        "refiner.kb_load_s": total("refiner.load_kb"),
        "refiner.kb_save_s": total("refiner.save_kb"),
        "refiner.bind_s": total("refiner.bind_intent"),
        "refiner.bindings": sum(len(r) for r in results("refiner.bind_intent")),
        "refiner.place_s": total("refiner.select_enforcement_set"),
        "refiner.place_calls": len(calls("refiner.select_enforcement_set")),
        "refiner.cover_size": sum(
            len(r[0]) for r in results("refiner.select_enforcement_set")),
        "refiner.build_s": total("refiner.build_artifacts"),
        "refiner.artifacts": sum(len(r) for r in results("refiner.build_artifacts")),
        "refiner.to_json_s": total("refiner.artifacts_to_json"),
        "refiner.from_json_s": total("refiner.artifacts_from_json"),
        "extractor.extract_s": total("extractor.extract_indicators"),
        "extractor.to_knowledge_s": total("extractor.indicators_to_knowledge"),
        "extractor.indicators": sum(
            len(r) for r in results("extractor.extract_indicators")),
        "factbase.parse_s": total("factbase.parse_knowledge"),
        "factbase.serialize_s": total("factbase.serialize_knowledge"),
        "factbase.facts": sum(
            len(s.args[0].facts) for s in calls("factbase.serialize_knowledge")),
        "converter.build_s": total("converter.build_mspl"),
        "converter.policies": sum(len(r) for r in results("converter.build_mspl")),
        "converter.serialize_s": total("converter.serialize_mspl"),
        "converter.mspl_bytes": sum(
            len(r.encode()) for r in results("converter.serialize_mspl")),
        "translator.translate_s": total("translator.translate_policy",
                                        "translator.rules_file_content"),
        "translator.rules": sum(len(r) for r in results("translator.translate_policy")),
        "translator.rules_bytes": sum(
            len(r.encode()) for r in results("translator.rules_file_content")),
        "verifier.evaluate_s": total("verifier.evaluate_flow"),
        "verifier.paths": sum(len(r) for r in results("verifier.evaluate_flow")),
        "verifier.report_bytes": sum(
            len(line.encode()) + 1
            for r in results("verifier.verify_deployment") for line in r[1]),
    }

    reports = [r[2] for r in results("refiner.kb_reconcile")]
    hits = sum(len(r.hits) for r in reports)
    m["refiner.kb_hit_ratio"] = _ratio(hits, hits + sum(len(r.misses) for r in reports))

    # bind_yield: relevant (fact, requirement) pairs per (intent, fact) pair.
    m["refiner.bind_yield"] = _ratio(
        m["refiner.bindings"],
        sum(len(s.args[2].facts) for s in calls("refiner.bind_intent")))

    # Placement is called once per binding, right after bind_intent returned
    # for the intent, so the last bound intent names the call's intent.
    # Candidates are counted as select_enforcement_set forms them.
    from intentrefine.refiner import _satisfying_controls

    intent = None
    keys = set()
    candidates = 0
    for s in spans:
        if s.name == "refiner.bind_intent":
            intent = s.args[1].id
        elif s.name == "refiner.select_enforcement_set":
            paths, t, catalog, required = s.args[:4]
            keys.add((intent, required))
            on_paths = {d for p in paths for d in p.devices(t)}
            candidates += sum(1 for d in on_paths
                              if _satisfying_controls(t, d, catalog, required))
    m["refiner.candidates"] = candidates
    m["refiner.place_yield"] = _ratio(len(keys), m["refiner.place_calls"])
    return {name: value for name, value in m.items() if value is not None}
