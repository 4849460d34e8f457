"""Canonical JSON serialization and DOT export.

Instances round-trip byte-identically: sorted object keys, two-space
indent, trailing newline, edges in sorted order, links in identity order,
and every rational written as an exact "num/den" string.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .covering import Instance, Link
from .errors import InvalidParameterError, require_int
from .multigraph import MultiGraph
from .oracle import GapResult, VerifierReport
from .tightgen import predicted_ratio
from .wgmv import RunResult, cost_of


def fraction_str(value: Fraction) -> str:
    """Exact "num/den" text at any size: int-to-str stops at Python's digit
    limit (4300 by default), the Decimal conversion does not, and both give
    the same digits."""
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def fraction_text(value: Fraction) -> str:
    """`str(value)` ("3", "5/2") by way of `fraction_str`, so at any size."""
    return fraction_str(value).removesuffix("/1")


def canonical_text(obj: Any) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` and a newline, for the
    documents written here: str-keyed dicts, lists, strings, ints, bools and
    None.  With `indent` set, json runs its pure-Python encoder, whose
    nested closures are left as a reference cycle on every call."""
    out: list[str] = []
    _put_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _put_json(obj: Any, out: list[str], newline: str) -> None:
    """Append `obj`'s text to `out`; `newline` ends with the indent of the
    line `obj` starts on."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _put_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _put_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def instance_to_obj(inst: Instance) -> dict:
    g = inst.graph
    return {
        "k": inst.k,
        "nodes": [{"id": v, "label": label} for v, label in enumerate(g.labels)],
        "edges": [{"u": u, "v": v, "mult": m} for u, v, m in g.edges],
        "links": [
            {"u": ln.u, "v": ln.v, "cost": fraction_str(ln.cost), "tag": ln.tag}
            for ln in inst.links
        ],
    }


def instance_to_text(inst: Instance) -> str:
    return canonical_text(instance_to_obj(inst))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameterError(msg)


def instance_from_obj(obj: Any) -> Instance:
    _require(isinstance(obj, dict), "instance document must be a JSON object")
    for key in ("k", "nodes", "edges", "links"):
        _require(key in obj, f"instance document is missing the {key!r} field")
    nodes = obj["nodes"]
    _require(isinstance(nodes, list) and nodes, "nodes must be a nonempty list")
    n = len(nodes)
    labels: dict[int, Any] = {}  # MultiGraph checks that each label is a string
    for entry in nodes:
        _require(isinstance(entry, dict), "each node must be an object")
        v = require_int(entry.get("id"), "node id")
        _require(0 <= v < n and v not in labels, f"node ids must be 0..{n - 1} without repeats")
        labels[v] = entry.get("label", str(v))
    edges = []
    _require(isinstance(obj["edges"], list), "edges must be a list")
    for entry in obj["edges"]:
        _require(isinstance(entry, dict), "each edge must be an object")
        edges.append((entry.get("u"), entry.get("v"), entry.get("mult")))
    links = []
    _require(isinstance(obj["links"], list), "links must be a list")
    for entry in obj["links"]:
        _require(isinstance(entry, dict), "each link must be an object")
        links.append(Link(u=entry.get("u"), v=entry.get("v"), cost=entry.get("cost"), tag=entry.get("tag")))
    graph = MultiGraph(n, edges, labels=[labels[v] for v in range(n)])
    return Instance(graph=graph, k=obj["k"], links=tuple(links))


def instance_from_text(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too many digits, or nesting too deep
        raise InvalidParameterError(f"not valid JSON: {e}")
    return instance_from_obj(obj)


def write_instance(path: str, inst: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_text(inst))


def read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise InvalidParameterError(f"instance file is not UTF-8: {e}")
    return instance_from_text(text)


def trace_to_obj(result: RunResult, inst: Instance) -> dict:
    duals = {
        ",".join(str(v) for v in s.nodes()): fraction_str(y)
        for s, y in sorted(result.dual.entries.items(), key=lambda kv: kv[0].nodes())
    }
    return {
        "policy": result.policy.value,
        "added": list(result.added),
        "iterations": [
            {
                "index": index,
                "active_cores": [list(s.nodes()) for s in rec.active_cores],
                "delta": fraction_str(rec.delta),
                "newly_tight": list(rec.newly_tight),
            }
            for index, rec in enumerate(result.iterations, 1)
        ],
        "duals": duals,
        "dual_objective": fraction_str(result.dual.objective()),
        "deleted": list(result.deleted),
        "final": list(result.final),
        "cost": fraction_str(cost_of(inst, result.final)),
    }


def report_to_obj(report: VerifierReport) -> dict:
    return {
        "title": report.title,
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }


def gap_to_obj(gap: GapResult) -> dict:
    return {
        "q": gap.params.q,
        "p": gap.params.p,
        "k": gap.params.k,
        "epsilon": fraction_str(gap.params.epsilon),
        "policy": gap.run.policy.value,
        "alg_cost": fraction_str(gap.alg_cost),
        "opt_cost": fraction_str(gap.opt_cost),
        "dual_obj": fraction_str(gap.run.dual.objective()),
        "ratio": fraction_str(gap.ratio),
        "opt_is_analytic": gap.opt_is_analytic,
        "final": list(gap.run.final),
    }


def sweep_to_obj(gaps: list[GapResult]) -> list[dict]:
    """One JSON row per gap run.  Its `matches`, whether the ratio is the
    family's predicted ratio, is decided here alone: `experiment` prints
    it and exits by it."""
    rows = []
    for gap in gaps:
        formula = predicted_ratio(gap.params)
        rows.append(
            {
                "k": gap.params.k,
                "p": gap.params.p,
                "ratio": fraction_str(gap.ratio),
                "formula_value": fraction_str(formula),
                "matches": gap.ratio == formula,
                "opt_is_analytic": gap.opt_is_analytic,
            }
        )
    return rows


def to_dot(inst: Instance) -> str:
    """Graphviz rendering: green multiplicity edges, dashed tagged links."""
    g = inst.graph
    lines = ["graph instance {"]
    for v, label in enumerate(g.labels):
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{label}"];')
    for u, v, m in g.edges:
        lines.append(f'  {u} -- {v} [color=green, label="{m}"];')
    for ln in inst.links:
        color = ln.tag or "gray"
        lines.append(f'  {ln.u} -- {ln.v} [color={color}, style=dashed, label="{fraction_text(ln.cost)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
