"""Regenerate the stored references in perfbench/reference/.

Run from the root of a checkout, only when a change to the model is meant
to move the reference values, and list the moved values in CHANGES.md:

    python3 perfbench/make_reference.py

It writes a fixed noisy arc scan (fit_scan.csv) and the expected results
of one fit and one simulate call on fixed inputs (expected.json).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from mmscatter.fileio import Scan, ScanPoint, read_report, write_scan  # noqa: E402
from mmscatter.lobes import LobeModel, LobeParams  # noqa: E402

import workloads  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIT_SCAN = "fit_scan.csv"
FIT_MATERIAL, FIT_THETA = "smooth_wall", 47.3
SIMULATE_ARGS = [
    "simulate", "--material", "marble_wall", "--theta-deg", "38.6", "--model", "dual", "--s", "0.2",
    "--alpha-r", "3", "--alpha-i", "8", "--lambda", "0.4", "--heights", workloads.CYLINDER_HEIGHTS_ARG,
    "--tiles-m", "0.2", "--out", "ref_sim.csv",
]
FIT_ARGS = ["fit", "--scan", FIT_SCAN, "--material", FIT_MATERIAL, "--theta-deg", repr(FIT_THETA),
            "--tiles-m", "0.2", "--out", "ref_fit.txt"]


def cli(args: list[str], cwd: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "mmscatter.cli", *args], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def main() -> None:
    rng = random.Random("reference")
    truth = LobeParams(LobeModel.DUAL_LOBE, workloads._theory_s(FIT_MATERIAL, FIT_THETA), 3, alpha_i=8, lambda_mix=0.3)
    records = workloads._simulate(FIT_MATERIAL, FIT_THETA, truth, workloads.ARC_HEIGHTS)
    points = tuple(
        ScanPoint(r.azimuth_deg, r.delta_h_cm, r.power_dbm + rng.gauss(0.0, workloads.NOISE_DB)) for r in records
    )
    REFERENCE_DIR.mkdir(exist_ok=True)
    write_scan(Scan(points=points), REFERENCE_DIR / FIT_SCAN)

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        (work / FIT_SCAN).write_bytes((REFERENCE_DIR / FIT_SCAN).read_bytes())
        cli(SIMULATE_ARGS, work)
        cli(FIT_ARGS, work)
        rows = (work / "ref_sim.csv").read_text(encoding="utf-8").splitlines()[2:]
        fit = {"args": FIT_ARGS, "input": FIT_SCAN}
        for label in ("single", "dual"):
            out = f"ref_fit.{label}.txt"
            report = read_report(work / out)
            fit[label] = {"out": out, "fvu": repr(report.fvu), "best": repr(report.best)}
    expected = {"simulate": {"args": SIMULATE_ARGS, "out": "ref_sim.csv", "rows": rows}, "fit": fit}
    with open(REFERENCE_DIR / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
