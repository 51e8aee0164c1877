"""How the CLI starts and ends, and what a call loads.

Run as a program, the CLI sets the BLAS-worker default and turns the cyclic GC off before numpy
loads, freezes the loaded heap and turns the GC back on before main works, and once main returns
flushes stdout and stderr and exits at once, skipping the interpreter's teardown. OpenSSL loads
only in the calls that use it, and fractions and decimal in none. numpy and each package layer
load only in the commands that run them: theory loads neither.

Each check of a start, an exit or the loaded modules runs a fresh interpreter, as this process
has loaded numpy and the package already.
"""

import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import mmscatter
from mmscatter import cli

SRC = str(Path(mmscatter.__file__).resolve().parents[1])
MATERIALS = str(Path(mmscatter.__file__).resolve().parent / "data" / "materials.txt")
# module and function of the installed `mmscatter` script
_SCRIPT = re.search(
    r'^mmscatter = "([\w.]+):(\w+)"$', (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8"), re.M
).groups()

# prints, flushed, "<module> <value>" at the first import of each module named in {probes},
# a dict of module name to a function of no arguments, then runs the entry point, whose exit
# would skip any later line of this program
_SPY = """
import gc, os, runpy, sys
probes = {probes}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name in probes:
            print(name, probes.pop(name)(), flush=True)
sys.meta_path.insert(0, Spy())
sys.argv[1:] = {argv!r}
{entry}
"""

_BLAS_PROBE = '{"numpy": lambda: os.environ.get("OPENBLAS_THREAD_TIMEOUT")}'


def _theory_argv(tmp_path, *extra):
    return ["theory", "--material", "metal_sheet", "--theta-min", "30", "--theta-max", "30", *extra,
            "--out", str(tmp_path / "theory.csv")]


# a one-angle pattern, the shortest call that loads numpy: theory loads none
def _pattern_argv(tmp_path, *extra):
    return ["pattern", "--material", "metal_sheet", "--theta-min", "30", "--theta-max", "30", *extra,
            "--out", str(tmp_path / "pattern.csv")]


# a caller's atexit hook, which would print after the entry point if the interpreter tore down
_EXIT_SPY = """
import atexit, runpy, sys
atexit.register(print, "the caller's atexit hook ran")
sys.argv[1:] = {argv!r}
{entry}
"""

# the three ways to start the CLI: python -m mmscatter.cli, python -m mmscatter, the mmscatter script
_ENTRIES = {
    "module-cli": 'runpy.run_module("mmscatter.cli", run_name="__main__", alter_sys=True)',
    "module-package": 'runpy.run_module("mmscatter", run_name="__main__", alter_sys=True)',
    "console-script": "from {0} import {1}; sys.exit({1}())".format(*_SCRIPT),
}

# imported only by the calls that use them: OpenSSL for a digest of an input file
_LAZY = ("hashlib", "_hashlib")
# imported by no call: the exact hemisphere coefficients are integers over one denominator
_UNUSED = ("fractions", "decimal")
# the modules a command does not run, so does not load; fit runs every layer
_NOT_RUN = {
    "theory": ("numpy", "mmscatter.lobes", "mmscatter.geometry", "mmscatter.fileio", "mmscatter.raytrace",
               "mmscatter.fitting"),
    "pattern": ("mmscatter.geometry", "mmscatter.fileio", "mmscatter.raytrace", "mmscatter.fitting"),
    "simulate": ("mmscatter.fitting",),
    "fit": (),
}


def _run(code: str, **env_extra: str) -> subprocess.CompletedProcess:
    # without PYTHONUNBUFFERED, stdout to a pipe is block-buffered, as a caller that pipes the CLI has it
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_THREAD_TIMEOUT", "PYTHONUNBUFFERED")}
    env.update(PYTHONPATH=SRC, **env_extra)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def _python(code: str, **env_extra: str) -> str:
    proc = _run(code, **env_extra)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    path = tmp_path_factory.mktemp("scan") / "sim.csv"
    assert cli.main(["simulate", "--s", "0.35", "--tiles-m", "0.5", "--out", str(path)]) == cli.EXIT_OK
    return path


def test_package_import_loads_no_numpy():
    assert _python("import sys, mmscatter; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("entry", list(_ENTRIES.values()), ids=list(_ENTRIES))
def test_blas_timeout_is_set_before_numpy_loads(tmp_path, entry):
    assert _python(_SPY.format(probes=_BLAS_PROBE, argv=_pattern_argv(tmp_path), entry=entry)) == "numpy 20"
    # the header, the column names, and the incident and specular rows
    assert (tmp_path / "pattern.csv").read_text().count("\n") == 4


def test_blas_timeout_the_caller_set_wins(tmp_path):
    code = _SPY.format(probes=_BLAS_PROBE, argv=_pattern_argv(tmp_path), entry=_ENTRIES["module-cli"])
    assert _python(code, OPENBLAS_THREAD_TIMEOUT="12") == "numpy 12"


@pytest.mark.parametrize("entry", list(_ENTRIES.values()), ids=list(_ENTRIES))
def test_gc_is_off_while_loading_and_skips_the_loaded_heap_while_working(tmp_path, entry):
    # the materials file's digest imports hashlib inside main
    probes = '{"numpy": gc.isenabled, "hashlib": lambda: (gc.isenabled(), gc.get_freeze_count() > 0)}'
    code = _SPY.format(probes=probes, argv=_pattern_argv(tmp_path, "--materials-file", MATERIALS), entry=entry)
    assert _python(code).splitlines() == ["numpy False", "hashlib (True, True)"]
    assert (tmp_path / "pattern.csv").read_text().count("\n") == 4


def test_importing_the_cli_loads_no_numpy():
    assert _python("import sys, mmscatter.cli; print('numpy' in sys.modules)") == "False"


# a dunder name loads nothing; any other name loads every layer, then resolves or raises
_LOADER_EDGES = """
import sys, mmscatter.cli as cli
getattr(cli, "__wrapped__", None)
print("numpy" in sys.modules)
import mmscatter.fitting
print(cli.grid_fit is mmscatter.fitting.grid_fit)
try:
    cli.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_the_cli_loader_edge_cases():
    assert _python(_LOADER_EDGES).splitlines() == [
        "False", "True", "module 'mmscatter.cli' has no attribute 'no_such_name'"
    ]


def test_importing_the_cli_leaves_the_environment_alone():
    code = "import gc, os, mmscatter.cli\nprint(os.getenv('OPENBLAS_THREAD_TIMEOUT'), gc.isenabled(), gc.get_freeze_count())"
    assert _python(code) == "None True 0"


@pytest.mark.parametrize("case", ["fit", "bad-option"])
@pytest.mark.parametrize("entry", list(_ENTRIES.values()), ids=list(_ENTRIES))
def test_the_cli_exit_keeps_its_code_and_whole_output(tmp_path, capsys, scan, entry, case):
    argv = {
        "fit": ["fit", "--scan", str(scan), "--s-initial", "0.35", "--tiles-m", "0.5", "--out", str(tmp_path / "fit")],
        "bad-option": ["fit", "--scan", str(scan), "--no-such-option", "--out", str(tmp_path / "fit")],
    }[case]
    code = cli.main(argv)
    expected = capsys.readouterr()
    if case == "fit":
        # both fits converge, and the FVU line is the only stdout
        assert code == cli.EXIT_OK and re.fullmatch(r"single FVU \S+ \| dual FVU \S+ \| winner \w+\n", expected.out)
    else:
        assert code == cli.EXIT_USAGE and expected.out == "" and expected.err.startswith("usage error: ")
    # all of the block-buffered stdout is written before the process exits, and the
    # caller's atexit hook does not run
    proc = _run(_EXIT_SPY.format(argv=argv, entry=entry))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)


def test_calling_main_leaves_the_heap_unfrozen(tmp_path):
    argv = ["theory", "--material", "metal_sheet", "--out", str(tmp_path / "theory.csv")]
    code = f"import gc, mmscatter.cli as c; assert c.main({argv!r}) == 0; print(gc.get_freeze_count(), gc.isenabled())"
    assert _python(code) == "0 True"


def test_importing_the_cli_loads_neither_openssl_nor_fractions():
    code = f"import sys, mmscatter.cli; print([m for m in {_LAZY + _UNUSED!r} if m in sys.modules])"
    assert _python(code) == "[]"


@pytest.mark.parametrize("command", ["pattern", "simulate", "fit"])
def test_no_command_loads_fractions_or_decimal(tmp_path, scan, command):
    # nor a layer it does not run; theory is checked by test_theory_loads_neither_openssl_nor_fractions
    out = str(tmp_path / "out")
    argv = {
        "pattern": ["pattern", "--material", "rough_wall", "--theta-step", "10", "--out", out],
        # the hemisphere normalization, the default
        "simulate": ["simulate", "--s", "0.35", "--tiles-m", "0.5", "--out", out],
        "fit": ["fit", "--scan", str(scan), "--s-initial", "0.35", "--tiles-m", "0.5", "--out", out],
    }[command]
    code = (
        f"import sys, mmscatter.cli; assert mmscatter.cli.main({argv!r}) == 0; "
        f"print([m for m in {_UNUSED + _NOT_RUN[command]!r} if m in sys.modules])"
    )
    # after the fit's FVU line
    assert _python(code).splitlines()[-1] == "[]"


def test_theory_loads_neither_openssl_nor_fractions(tmp_path):
    code = (
        f"import sys, mmscatter.cli; assert mmscatter.cli.main({_theory_argv(tmp_path)!r}) == 0; "
        f"print([m for m in {('_hashlib', *_UNUSED, *_NOT_RUN['theory'])!r} if m in sys.modules])"
    )
    assert _python(code) == "[]"


def test_fit_digests_its_inputs_after_the_fit_frees_its_pattern(tmp_path, monkeypatch, scan):
    events, patterns = [], []
    evaluator, compare, digest = cli.ScanEvaluator, cli.compare_models, cli._digest

    def spy_evaluator(*args, **kwargs):
        evaluate = evaluator(*args, **kwargs)
        patterns.append(weakref.ref(evaluate.pattern))
        return evaluate

    def spy_compare(*args):
        comparison = compare(*args)
        events.append("compare_models returned")
        return comparison

    def spy_digest(path):
        events.append(("digest", Path(path).name, "pattern freed" if patterns[0]() is None else "pattern held"))
        return digest(path)

    monkeypatch.setattr(cli, "ScanEvaluator", spy_evaluator)
    monkeypatch.setattr(cli, "compare_models", spy_compare)
    monkeypatch.setattr(cli, "_digest", spy_digest)
    argv = ["fit", "--scan", str(scan), "--s-initial", "0.35", "--tiles-m", "0.5", "--out", str(tmp_path / "fit")]
    assert cli.main(argv) == cli.EXIT_OK
    assert events == ["compare_models returned", ("digest", "sim.csv", "pattern freed")]
