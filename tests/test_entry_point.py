"""How the CLI starts and ends: the BLAS-worker default must be in the environment before numpy
loads, and the heap is frozen once main returns, so that the interpreter's final collections skip it.

Each check runs a fresh interpreter, as this process has loaded numpy already.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mmscatter

SRC = str(Path(mmscatter.__file__).resolve().parents[1])
# module and function of the installed `mmscatter` script
_SCRIPT = re.search(
    r'^mmscatter = "([\w.]+):(\w+)"$', (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8"), re.M
).groups()

# records OPENBLAS_THREAD_TIMEOUT at the first import of numpy, then runs the entry point
_SPY = """
import os, runpy, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Spy())
{argv}
try:
    {entry}
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(seen)
"""

_THEORY_ARGV = (
    'sys.argv[1:] = ["theory", "--material", "metal_sheet", "--theta-min", "30", "--theta-max", "30", "--out", {out!r}]'
)

# prints from an atexit hook, which runs after the entry point's sys.exit, whether the heap is frozen
_FREEZE_SPY = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0))
{argv}
{entry}
"""

# the three ways to start the CLI: python -m mmscatter.cli, python -m mmscatter, the mmscatter script
_ENTRIES = {
    "module-cli": 'runpy.run_module("mmscatter.cli", run_name="__main__", alter_sys=True)',
    "module-package": 'runpy.run_module("mmscatter", run_name="__main__", alter_sys=True)',
    "console-script": "from {0} import {1}; sys.exit({1}())".format(*_SCRIPT),
}


def _python(code: str, **env_extra: str) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env.update(PYTHONPATH=SRC, **env_extra)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_package_import_loads_no_numpy():
    assert _python("import sys, mmscatter; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("entry", list(_ENTRIES.values()), ids=list(_ENTRIES))
def test_blas_timeout_is_set_before_numpy_loads(tmp_path, entry):
    out = tmp_path / "theory.csv"
    assert _python(_SPY.format(argv=_THEORY_ARGV.format(out=str(out)), entry=entry)) == "['20']"
    assert out.read_text().count("\n") == 3


def test_blas_timeout_the_caller_set_wins(tmp_path):
    code = _SPY.format(argv=_THEORY_ARGV.format(out=str(tmp_path / "theory.csv")), entry=_ENTRIES["module-cli"])
    assert _python(code, OPENBLAS_THREAD_TIMEOUT="12") == "['12']"


def test_importing_the_cli_leaves_the_environment_alone():
    assert _python("import os, mmscatter.cli; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))") == "None"


@pytest.mark.parametrize("entry", list(_ENTRIES.values()), ids=list(_ENTRIES))
def test_heap_is_frozen_when_the_cli_ends(tmp_path, entry):
    out = tmp_path / "theory.csv"
    assert _python(_FREEZE_SPY.format(argv=_THEORY_ARGV.format(out=str(out)), entry=entry)) == "True"
    assert out.read_text().count("\n") == 3


def test_calling_main_leaves_the_heap_unfrozen(tmp_path):
    argv = ["theory", "--material", "metal_sheet", "--out", str(tmp_path / "theory.csv")]
    code = f"import gc, mmscatter.cli; assert mmscatter.cli.main({argv!r}) == 0; print(gc.get_freeze_count())"
    assert _python(code) == "0"
