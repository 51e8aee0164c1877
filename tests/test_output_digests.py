"""Byte-identity guard: small CLI calls whose every output file keeps its SHA-256 digest.

The fits at 0.5 m and 0.2 m tiles start at S 0.8, where many stage-A
candidates miss the screen's certificates and take its exact-gate
fallback. The last call fits one model, through the CLI's direct
grid_fit call, to the in-plane points alone. The digests in
output_digests.json come from these calls; a change that alters outputs
on purpose regenerates them with

    PYTHONPATH=src python tests/test_output_digests.py

which prints the names whose digests changed, appeared or vanished
against the file it overwrites, and commits the new file with the change.

A second test reruns three of the calls on an emulated CPU without
AVX-512, where the last digits of their outputs move (ROADMAP item 16).
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import mmscatter
from mmscatter.cli import EXIT_OK, main

DIGESTS = Path(__file__).with_name("output_digests.json")

_SCENE = ["--material", "rough_wall", "--theta-deg", "30"]
CALLS = [
    *(
        argv
        for edge in ("0.5", "0.2")
        for argv in (
            ["simulate", *_SCENE, "--model", "dual", "--s", "0.35", "--lambda", "0.3", "--heights", "0,0.3",
             "--tiles-m", edge, "--out", f"sim_{edge}.csv"],
            ["fit", "--scan", f"sim_{edge}.csv", *_SCENE, "--s-initial", "0.8", "--tiles-m", edge,
             "--out", f"fit_{edge}.txt"],
        )
    ),
    ["theory", "--out", "theory.csv"],
    ["pattern", "--out", "pattern_single.csv"],
    ["pattern", "--model", "dual", "--out", "pattern_dual.csv"],
    ["angles", *_SCENE, "--heights", "0,0.3", "--out", "angles.csv"],
    # one model, in-plane points only: the direct grid_fit call of the CLI
    ["fit", "--scan", "sim_0.5.csv", *_SCENE, "--model", "dual", "--plane-only", "--s-initial", "0.8",
     "--tiles-m", "0.5", "--out", "fit_plane_0.5.txt"],
]


def output_digests(directory) -> dict[str, str]:
    """Run CALLS in directory, with their relative --out names; the SHA-256 of every file written, by name."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in CALLS:
            assert main(argv) == EXIT_OK, argv
    finally:
        os.chdir(cwd)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(Path(directory).iterdir())}


def test_outputs_keep_their_digests(tmp_path):
    assert output_digests(tmp_path) == json.loads(DIGESTS.read_text(encoding="utf-8"))


# a CPU without AVX-512, emulated for one child process: OpenBLAS's Prescott
# kernels, and numpy's loops without AVX2 or AVX-512
OLD_CPU = {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
# the child runs the calls given as JSON and exits with the largest exit code
_RUN_CALLS = """
import json, sys
from mmscatter.cli import main
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 16: BLAS dots and numpy's SIMD loops round the last digits by CPU",
)
def test_outputs_keep_their_digests_on_an_older_cpu(tmp_path):
    names = ("sim_0.5.csv", "sim_0.2.csv", "angles.csv")
    calls = [argv for argv in CALLS if argv[argv.index("--out") + 1] in names]
    src = Path(mmscatter.__file__).resolve().parents[1]
    env = {**os.environ, **OLD_CPU, "PYTHONPATH": str(src)}
    child = [sys.executable, "-c", _RUN_CALLS, json.dumps(calls)]
    subprocess.run(child, cwd=tmp_path, env=env, check=True, timeout=120)
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names} == {
        name: committed[name] for name in names
    }


if __name__ == "__main__":
    before = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        digests = output_digests(scratch)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    for label, names in (
        ("changed", [name for name in digests if name in before and before[name] != digests[name]]),
        ("appeared", [name for name in digests if name not in before]),
        ("vanished", [name for name in before if name not in digests]),
    ):
        print(f"{label}: {', '.join(names) or 'none'}")
