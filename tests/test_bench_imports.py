"""The benchmark in bench/ imports this package by name and traces six of
its modules.  A change to src/ alone that deletes or renames one of those
names makes every benchmark operation fail, so these tests read bench/*.py
with `ast` and resolve each name without running the benchmark."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_from_the_package_resolve():
    imports = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                imports += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                imports += [(path.name, a.name, None) for a in node.names]
    ours = [imp for imp in imports if imp[1].split(".")[0] == "smallcuts"]
    assert ours, "bench/ no longer imports smallcuts"
    missing = [imp for imp in ours if not _resolves(imp[1], imp[2])]
    assert missing == []


def test_traced_layers_exist():
    tree = ast.parse((BENCH / "tracer.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    assert len(layers) == 6
    missing = [layer for layer in layers if not _resolves(f"smallcuts.{layer}", None)]
    assert missing == []


def test_tracer_counts_one_solve(monkeypatch, capsys):
    """The tracer's hooks read attributes of the traced calls' arguments and
    results (`inst.default_root()`, `args[0].n`, `out[2]`, `args[1]`), which
    an import check cannot see; one traced `solve` exercises them all."""
    from smallcuts.cli import main

    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    instance = BENCH.parent / "tests" / "golden" / "solve_n7.json"
    with tr.installed(), tr.op():
        assert main(["solve", str(instance)]) == 0
    metrics = tr.layer_metrics(0.0)
    assert metrics["covering.violated_cuts.calls"] == 1
    assert metrics["covering.covers.calls"] == 9
    assert metrics["wgmv.phase1.iterations"] == 3
