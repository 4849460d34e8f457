"""Outside-in tracing of the smallcuts layers, from the benchmark's own files.

`Tracer.installed` wraps every public function defined in each layer module
and rebinds the wrapper in every smallcuts module that holds the original,
because the package imports by name (``wgmv`` calls the ``covers`` it
bound with ``from .covering import covers``); patching only the defining
module would silently miss those calls.  Spans are kept in memory as
``(parent id, name id, start, end)``; the span id is the list index.  Self
time is a span's duration minus its children's, computed after the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

LAYERS = ("multigraph", "covering", "wgmv", "oracle", "tightgen", "serialize")
OP_SPAN = "op"

# (name, unit, better, the end-to-end metric and workload it should move).
# Times and counts are per traced operation, so they do not depend on how
# many operations a run completes.
LAYER_METRICS = (
    ("covering.violated_cuts.calls", "calls/op", "lower", "ops_per_s on solve_random, verify_family; zero on sweep_family, solve_family_large"),
    ("covering.violated_cuts.self_s", "s/op", "lower", "ops_per_s on solve_random, verify_family (cut-degree table plus violated filter)"),
    ("covering.violated_cuts.masks", "masks/op", "lower", "ops_per_s on solve_random, verify_family (sum of 2^(n-1)-1)"),
    ("covering.violated_cuts.useful_frac", "fraction", "higher", "ops_per_s on solve_random (cuts returned / masks)"),
    ("covering.violated_cuts.repeat_frac", "fraction", "lower", "ops_per_s on solve_random, verify_family (same graph and root again)"),
    ("covering.cores_bruteforce.calls", "calls/op", "lower", "op_s_p50 on solve_random"),
    ("covering.cores_bruteforce.self_s", "s/op", "lower", "op_s_p50 on solve_random"),
    ("covering.cores_bruteforce.cores_per_call", "cores/call", "higher", "op_s_p50 on solve_random"),
    ("covering.covers.calls", "calls/op", "lower", "ops_per_s on sweep_family, verify_family"),
    ("covering.covers.self_s", "s/op", "lower", "ops_per_s on sweep_family, verify_family"),
    ("covering.covers.true_frac", "fraction", "higher", "ops_per_s on sweep_family, verify_family"),
    ("covering.covers.min_cut_frac", "fraction", "lower", "ops_per_s on sweep_family (covers calls past the degree screen)"),
    ("multigraph.global_min_cut.calls", "calls/op", "lower", "ops_per_s on solve_family_large, sweep_family"),
    ("multigraph.global_min_cut.self_s", "s/op", "lower", "ops_per_s on solve_family_large, sweep_family"),
    ("multigraph.global_min_cut.nodes_mean", "nodes", "lower", "ops_per_s on solve_family_large, sweep_family"),
    ("multigraph.cut_degree.calls", "calls/op", "lower", "ops_per_s on solve_family_large, sweep_family"),
    ("multigraph.cut_degree.self_s", "s/op", "lower", "ops_per_s on solve_family_large, sweep_family"),
    ("oracle.brute_force_optimum.s", "s/op", "lower", "ops_per_s on sweep_family, verify_family"),
    ("oracle.brute_force_optimum.self_s", "s/op", "lower", "ops_per_s on sweep_family, verify_family (Fraction sums, subsets)"),
    ("oracle.brute_force_optimum.covers_calls", "calls/op", "lower", "ops_per_s on sweep_family, verify_family"),
    ("oracle.verify_cores_lemma.s", "s/op", "lower", "op_s_p50 on verify_family"),
    ("oracle.verify_feasibility_lemma.s", "s/op", "lower", "op_s_p50 on verify_family"),
    ("oracle.gap_experiment.s", "s/op", "lower", "op_s_p50 on verify_family"),
    ("wgmv.phase1.s", "s/op", "lower", "ops_per_s on solve_random"),
    ("wgmv.phase1.self_s", "s/op", "lower", "ops_per_s on solve_random (exact Fraction dual raising)"),
    ("wgmv.phase1.iterations", "iters/op", "lower", "ops_per_s on solve_random"),
    ("wgmv.reverse_delete.s", "s/op", "lower", "ops_per_s on solve_family_large"),
    ("wgmv.reverse_delete.trials", "trials/op", "lower", "ops_per_s on solve_family_large"),
    ("wgmv.reverse_delete.deleted_frac", "fraction", "lower", "ops_per_s on solve_family_large (deleted / trials)"),
    ("tightgen.generate_instance.s", "s/op", "lower", "setup_s, op_s_p50 on solve_family_large"),
    ("tightgen.detect_generated.s", "s/op", "lower", "setup_s, op_s_p50 on solve_family_large"),
    ("serialize.read_instance.s", "s/op", "lower", "setup_s, op_s_p50 on solve_family_large"),
    ("serialize.trace_to_obj.s", "s/op", "lower", "setup_s, op_s_p50 on solve_family_large"),
    ("trace.overhead_frac", "fraction", "lower", "none: traced / untraced wall time - 1, says how far to trust the rest"),
)


class Tracer:
    """Wraps the layer functions while installed; records spans and counts."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.spans: list[tuple[int, int, float, float] | None] = []
        self.work: Counter[str] = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._seen_graphs: set[tuple] = set()
        self._wrappers: dict[Callable, Callable] = {}
        self._hooks = {
            "covering.violated_cuts": self._count_violated_cuts,
            "covering.cores_bruteforce": lambda args, kw, out: self.work.update({"covering.cores_bruteforce.cores": len(out)}),
            "covering.covers": lambda args, kw, out: self.work.update({"covering.covers.true": int(out)}),
            "multigraph.global_min_cut": lambda args, kw, out: self.work.update({"multigraph.global_min_cut.nodes": args[0].n}),
            "wgmv.phase1": lambda args, kw, out: self.work.update({"wgmv.phase1.iterations": len(out[2])}),
            "wgmv.reverse_delete": lambda args, kw, out: self.work.update(
                {"wgmv.reverse_delete.trials": len(args[1]), "wgmv.reverse_delete.deleted": len(out[1])}
            ),
        }

    def _count_violated_cuts(self, args, kw, out) -> None:
        inst = args[0]
        key = (inst.graph.n, inst.graph.edges, inst.default_root())
        self.work.update(
            {
                "covering.violated_cuts.masks": (1 << (inst.n - 1)) - 1,
                "covering.violated_cuts.cuts": len(out),
                "covering.violated_cuts.repeats": int(key in self._seen_graphs),
            }
        )
        self._seen_graphs.add(key)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        index = len(self.names)
        self.names.append(name)
        hook = self._hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (parent, index, start, end)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap each layer's public functions, wherever a smallcuts module
        binds them, while the block runs."""
        wrappers = self._wrappers
        if not wrappers:
            for layer in LAYERS:
                module = sys.modules[f"smallcuts.{layer}"]
                for attr, fn in vars(module).items():
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                        wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        patched = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "smallcuts" or modname.startswith("smallcuts.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        try:
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    @contextmanager
    def op(self) -> Iterator[None]:
        """One traced operation: a root span, and a fresh repeat scope."""
        self._seen_graphs.clear()
        span = len(self.spans)
        self.spans.append(None)
        self._stack.append(span)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span] = (-1, 0, start, end)
            self.ops += 1

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (_, index, start, end) in enumerate(self.spans):
            row = out.setdefault(self.names[index], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Calls of `child_name` made directly from `parent_name`."""
        parent_index = self.names.index(parent_name) if parent_name in self.names else -2
        child_index = self.names.index(child_name) if child_name in self.names else -2
        return sum(
            1
            for parent, index, _, _ in self.spans
            if index == child_index and parent >= 0 and self.spans[parent][1] == parent_index
        )

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every LAYER_METRICS value, per traced operation."""
        totals = self.totals()
        ops = max(self.ops, 1)
        work = self.work

        def total(name: str, field: str) -> float:
            return totals.get(name, {}).get(field, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        vc, cov = "covering.violated_cuts", "covering.covers"
        derived = {
            f"{vc}.masks": work[f"{vc}.masks"] / ops,
            f"{vc}.useful_frac": ratio(work[f"{vc}.cuts"], work[f"{vc}.masks"]),
            f"{vc}.repeat_frac": ratio(work[f"{vc}.repeats"], total(vc, "calls")),
            "covering.cores_bruteforce.cores_per_call": ratio(
                work["covering.cores_bruteforce.cores"], total("covering.cores_bruteforce", "calls")
            ),
            f"{cov}.true_frac": ratio(work[f"{cov}.true"], total(cov, "calls")),
            f"{cov}.min_cut_frac": ratio(self.child_calls(cov, "multigraph.global_min_cut"), total(cov, "calls")),
            "multigraph.global_min_cut.nodes_mean": ratio(
                work["multigraph.global_min_cut.nodes"], total("multigraph.global_min_cut", "calls")
            ),
            "oracle.brute_force_optimum.covers_calls": self.child_calls("oracle.brute_force_optimum", cov) / ops,
            "wgmv.phase1.iterations": work["wgmv.phase1.iterations"] / ops,
            "wgmv.reverse_delete.trials": work["wgmv.reverse_delete.trials"] / ops,
            "wgmv.reverse_delete.deleted_frac": ratio(
                work["wgmv.reverse_delete.deleted"], work["wgmv.reverse_delete.trials"]
            ),
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name, _, _, _ in LAYER_METRICS:
            if name in derived:
                out[name] = derived[name]
            else:
                func, field = name.rsplit(".", 1)
                out[name] = total(func, field) / ops
        return out
