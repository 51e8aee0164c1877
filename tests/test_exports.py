import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mmscatter
from mmscatter import cli
from mmscatter.fileio import read_scan

MODULES = ["mmscatter"] + sorted(m.name for m in pkgutil.iter_modules(mmscatter.__path__, "mmscatter."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_no_relative_import_inside_a_function():
    # a deferred `from .x import` inside a function hides an import cycle
    # between package modules; every package import sits at module level
    deferred = set()
    for path in sorted(Path(mmscatter.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                )
    assert sorted(deferred) == []


def _benchmark_spans():
    """perfbench/spans.py, the traced benchmark's timing wrappers, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_hooks_resolve():
    # the traced benchmark swaps these package attributes for timing wrappers;
    # a renamed one would break `perfbench/run.py --trace 1`
    tracer = _benchmark_spans().Tracer()
    try:
        tracer.instrument()
        patched = list(tracer._saved)
    finally:
        tracer.restore()
    assert patched
    assert [name for owner, name, original in patched if getattr(owner, name) is not original] == []


def test_traced_benchmark_fit_records_its_layers(tmp_path):
    # `perfbench/run.py --trace 1` replays CLI calls with the spans on, and its
    # normalization span calls lobes.normalization_f; one traced fit of both
    # models on a 19-point arc must run and record the layers the metrics read
    spans = _benchmark_spans()
    scan, out = tmp_path / "sim.csv", tmp_path / "fit.txt"
    assert cli.main(["simulate", "--s", "0.35", "--tiles-m", "0.5", "--out", str(scan)]) == cli.EXIT_OK
    assert len(read_scan(scan).points) == 19
    tracer = spans.Tracer()
    tracer.alphas = tuple(range(1, 11))
    tracer.instrument()
    try:
        call = tracer.begin(spans.CALL_SPAN)
        code = cli.main(["fit", "--scan", str(scan), "--model", "both", "--s-initial", "0.35", "--tiles-m", "0.5",
                         "--out", str(out)])
        tracer.end(call)
    finally:
        tracer.restore()
    assert code == cli.EXIT_OK
    assert {"lobes.norm_table", "raytrace.predict", "fitting.grid_fit"} <= {span[2] for span in tracer.spans}
    assert tracer.counts[spans.CALL_SPAN]["lobes.norm_pairs"] > 0


def test_traced_benchmark_simulate_records_its_layers(tmp_path):
    # simulate-refine's per-layer metrics read these spans. simulate holds no
    # whole pattern: it tiles the wall once, then builds and predicts one block
    # of receiver rows at a time, 9 blocks of at most 9 of the 76 receivers x
    # 3,600 tiles, so build_pattern and its path count come from the probe fit
    spans = _benchmark_spans()
    tracer = spans.Tracer()
    tracer.instrument()
    try:
        call = tracer.begin(spans.CALL_SPAN)
        code = cli.main(["simulate", "--s", "0.35", "--tiles-m", "0.05", "--heights", "0,0.1,0.2,0.3",
                         "--out", str(tmp_path / "sim.csv")])
        tracer.end(call)
    finally:
        tracer.restore()
    assert code == cli.EXIT_OK
    names = [span[2] for span in tracer.spans]
    assert [names.count(n) for n in ("raytrace.build_pattern", "raytrace.tile_centers", "raytrace.predict")] == [0, 1, 9]
    assert "raytrace.path_count" not in tracer.counts[spans.CALL_SPAN]


def _module_imports(tree):
    """(name, lineno) of every name that a module-level import statement binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


def test_no_unused_module_import():
    # a module-level import is read somewhere in its module, or re-exported through __all__
    unused = []
    for path in sorted(Path(mmscatter.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = importlib.import_module(f"mmscatter.{path.stem}" if path.stem != "__init__" else "mmscatter")
        exported = set(getattr(module, "__all__", ()))
        unused += [f"{path.name}:{line}: {name}" for name, line in _module_imports(tree) if name not in read | exported]
    assert unused == []


# the modules that importing the CLI and one default (hemisphere-mode) simulate load, in a fresh interpreter
_LOADED_BY_SIMULATE = """
import sys
before = set(sys.modules)
from mmscatter.cli import main
code = main(["simulate", "--out", {out!r}])
print(code, *sorted(set(sys.modules) - before))
"""


def test_simulate_loads_only_stdlib_numpy_and_the_package(tmp_path):
    # numpy is the one runtime dependency, and the closed-form normalization needs no numpy.polynomial
    env = dict(os.environ, PYTHONPATH=str(Path(mmscatter.__file__).resolve().parents[1]))
    code = _LOADED_BY_SIMULATE.format(out=str(tmp_path / "sim.csv"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    exit_code, *loaded = proc.stdout.split()
    assert exit_code == "0"
    allowed = {*sys.stdlib_module_names, "numpy", "mmscatter"}
    assert [name for name in loaded if name.split(".")[0] not in allowed] == []
    assert "mmscatter.lobes" in loaded
    assert [name for name in loaded if name.startswith("numpy.polynomial")] == []
