"""Spans around the public functions of every goeritz module, recorded from
outside the package.

install() replaces each public function with a wrapper in every goeritz
module that binds it (obstruction, equivariance and cli import names with
`from ... import`, so patching the defining module alone would miss those
calls), and remove() puts the originals back.  Spans are kept in memory:
[name, parent index, start, end, note].  A span's self time is its duration
minus the durations of its direct children; calls run one at a time, so the
children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import goeritz
from goeritz import _intlinalg, cli, diagram, equivariance, family, lattice, obstruction

MODULES = (diagram, lattice, equivariance, obstruction, _intlinalg, cli, family)

# Functions whose total seconds per pass are reported as <name>.s.
TIMED = [
    "lattice.enumerate_embeddings", "lattice.is_definite",
    "equivariance.span_restriction_test", "equivariance.find_equivariant_witness",
    "equivariance.exists_equivariant_embedding",
    "obstruction.gamma4p_lower_bound", "obstruction.KnotCertificate",
    "obstruction.certificate_from_json",
    "diagram.goeritz", "diagram.induced_action_matrix", "diagram.validate_action",
    "intlinalg.det", "intlinalg.leading_principal_minors", "intlinalg.matrix_power_order",
    "intlinalg.matmul", "intlinalg.kernel_basis", "intlinalg.column_hnf",
    "intlinalg.solve_exact",
]


def layer_of(module) -> str:
    # Metric names must start with a letter, so _intlinalg reports as intlinalg.
    return module.__name__.rsplit(".", 1)[-1].lstrip("_")


def _scaled(sign, matrix):
    return tuple(tuple(sign * x for x in row) for row in matrix)


def _note_enumerate(args, result):
    lat, corank, sign = args["lat"], args["corank"], args["sign"]
    return {
        "problem": (lat, corank, sign),
        "key": (_scaled(sign, lat.matrix), corank),
        "classes": None if result is None else len(result),
    }


def _note_exists(args, result):
    return {"key": (_scaled(args["sign"], args["lat"].matrix), args["f"], args["corank"])}


def _note_witness(args, result):
    return {"outcome": None if result is None else result.outcome}


NOTES = {
    "lattice.enumerate_embeddings": _note_enumerate,
    "equivariance.exists_equivariant_embedding": _note_exists,
    "equivariance.find_equivariant_witness": _note_witness,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = perf_counter()
                span[2] = t0
                stack.pop()
                if note:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = note(bound.arguments, result)

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in MODULES:
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer_of(module)}.{attr}", fn))
        targets = [goeritz] + [m for k, m in sys.modules.items() if k.startswith("goeritz.")]
        for module in targets:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        cert = obstruction.KnotCertificate
        original = cert.__post_init__
        self._undo.append((cert, "__post_init__", original))
        cert.__post_init__ = self._wrap("obstruction.KnotCertificate", original)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _layer(name):
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Per span name: total seconds (spans inside a span of the same name
    not counted twice), calls and self seconds.  Per layer: self seconds,
    and total seconds of spans not inside another span of that layer."""
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    names: dict[str, dict] = {}
    layer_self: dict[str, float] = {}
    layer_total: dict[str, float] = {}
    for i, s in enumerate(spans):
        entry = names.setdefault(s[0], {"s": 0.0, "calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += dur[i] - child[i]
        layer = _layer(s[0])
        layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child[i]
        if under(spans, i, s[0]) < 0:
            entry["s"] += dur[i]
        if under(spans, i, layer, key=_layer) < 0:
            layer_total[layer] = layer_total.get(layer, 0.0) + dur[i]
    return {"names": names, "layer_self_s": layer_self, "layer_s": layer_total}


def under(spans, i, ancestor, key=lambda name: name) -> int:
    """Index of the nearest enclosing span whose key(name) is ancestor, or -1."""
    p = spans[i][1]
    while p >= 0 and key(spans[p][0]) != ancestor:
        p = spans[p][1]
    return p


def span_tags(spans, first_span, ops):
    """The tag of the op each span belongs to; first_span maps an op's index
    to the index of its first span."""
    tags = [""] * len(spans)
    starts = sorted((i, k) for k, i in first_span.items()) + [(len(spans), None)]
    for (i, k), (j, _) in zip(starts, starts[1:]):
        tags[i:j] = [ops[k].tag] * (j - i)
    return tags


def pass_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass over a workload's inputs."""
    summary = summarize(spans)
    names = summary["names"]

    def get(name, field):
        return names.get(name, {}).get(field, 0)

    m = {f"{name}.s": get(name, "s") for name in TIMED}
    m["lattice.enumerate_embeddings.calls"] = get("lattice.enumerate_embeddings", "calls")
    m["intlinalg.matmul.calls"] = get("intlinalg.matmul", "calls")
    m["equivariance.find_equivariant_witness.self_s"] = get(
        "equivariance.find_equivariant_witness", "self_s")
    m["obstruction.self_s"] = summary["layer_self_s"].get("obstruction", 0.0)
    m["cli.main.s"] = get("cli.main", "s")
    m["lattice.classes"] = sum(s[4]["classes"] or 0 for s in spans
                               if s[0] == "lattice.enumerate_embeddings")
    verdicts = [s[4]["outcome"] for s in spans
                if s[0] == "equivariance.find_equivariant_witness" and s[4]["outcome"]]
    for outcome in ("witness", "refuted_rational", "refuted_search"):
        m[f"equivariance.outcome.{outcome}"] = verdicts.count(outcome)
    m["equivariance.rational_refute_frac"] = (
        verdicts.count("refuted_rational") / len(verdicts) if verdicts else 0.0)
    # Classes exists_equivariant_embedding tested over those it enumerated.
    tested = offered = 0
    problems: dict[int, list] = {}
    for i, s in enumerate(spans):
        parent = spans[s[1]][0] if s[1] >= 0 else ""
        if parent == "equivariance.exists_equivariant_embedding":
            if s[0] == "equivariance.find_equivariant_witness":
                tested += 1
            elif s[0] == "lattice.enumerate_embeddings":
                offered += s[4]["classes"] or 0
        if s[0] == "equivariance.exists_equivariant_embedding":
            top = under(spans, i, "obstruction.gamma4p_lower_bound")
            if top >= 0:
                problems.setdefault(top, []).append(s[4]["key"])
    m["equivariance.classes_tested_frac"] = tested / offered if offered else 0.0
    m["obstruction.problems"] = sum(len(v) for v in problems.values())
    m["obstruction.distinct_problems"] = sum(len(set(v)) for v in problems.values())
    return m


def exact_nodes(problem, enumerate_embeddings) -> int:
    """Smallest max_nodes for which the search completes, by bisection.

    Uses only the public budget: SearchIncomplete is raised once the node
    count exceeds max_nodes, so the answer is the first budget that does
    not raise.  Costs about twenty searches.
    """
    lat, corank, sign = problem

    def completes(budget):
        try:
            enumerate_embeddings(lat, corank, sign, max_nodes=budget)
            return True
        except lattice.SearchIncomplete:
            return False

    if completes(0):
        return 0
    lo, hi = 0, 1
    while not completes(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:  # completes(hi) and not completes(lo)
        mid = (lo + hi) // 2
        if completes(mid):
            hi = mid
        else:
            lo = mid
    return hi
