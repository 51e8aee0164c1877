"""The benchmark's stored reference calls, run through the CLI and judged by perfbench/checks.py.

A change that the benchmark would refuse for a reference simulation or fit
that moved fails here first.
"""

import importlib.util
import json
import shutil
from pathlib import Path

from mmscatter.cli import EXIT_OK, main


def _benchmark_checks():
    """perfbench/checks.py, the benchmark's output checks, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_reference_calls_pass_the_benchmark_checks(tmp_path, monkeypatch):
    checks = _benchmark_checks()
    expected = json.loads((checks.REFERENCE_DIR / "expected.json").read_text(encoding="utf-8"))
    shutil.copy(checks.REFERENCE_DIR / expected["fit"]["input"], tmp_path)
    monkeypatch.chdir(tmp_path)
    for name in ("simulate", "fit"):
        assert main(expected[name]["args"]) == EXIT_OK, name
    assert checks.check_reference_simulate(expected["simulate"], tmp_path) == []
    assert checks.check_reference_fit(expected["fit"], tmp_path) == []
