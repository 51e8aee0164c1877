"""Correctness checks on the CLI's output files.

Three kinds of check count towards `failed`:

* per call: the exit code is 0, every output parses and has the expected
  shape, a fit's best FVU is the minimum of its trace (up to tie-breaking)
  and the printed summary matches the reports; the noiseless on-grid fit
  returns its truth exactly, with FVU 0.0;
* across passes: a repeated call writes byte-identical files;
* against stored references: a fixed noisy fit and a fixed simulation,
  whose inputs and expected values live in `reference/`, must match within
  REFERENCE_TOLERANCE. The tolerance is loose enough for the ~1e-6
  relative power shift of an exact normalization (2.3e-5 relative for
  1e-4 dB) and tight enough to catch a changed model.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from mmscatter.fileio import FileFormatError, read_report, read_scan
from mmscatter.fitting import FVU_TIE_TOL

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_TOLERANCE = {"power_db": 1e-4, "fvu_rel": 1e-4}
BEST_FVU_SLACK = 1000 * FVU_TIE_TOL


def _data_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]


def _check_fit(call, workdir: Path, stdout: str) -> list[str]:
    problems = []
    winner_path, single_path, dual_path = (workdir / name for name in call.outputs)
    reports = {}
    for label, path in (("single", single_path), ("dual", dual_path)):
        report = read_report(path)
        reports[label] = report
        # the fit breaks FVU ties within FVU_TIE_TOL by parameter order, and a
        # chain of such ties can leave the best a few tolerances above the minimum
        lowest = min(e.fvu for e in report.trace)
        if report.fvu - lowest > BEST_FVU_SLACK:
            problems.append(f"{path.name}: best FVU {report.fvu!r} exceeds the trace minimum {lowest!r}")
        if not report.converged:
            problems.append(f"{path.name}: fit did not converge")
    winner_label = "dual" if reports["dual"].fvu < reports["single"].fvu - FVU_TIE_TOL else "single"
    if winner_path.read_bytes() != (dual_path if winner_label == "dual" else single_path).read_bytes():
        problems.append(f"{winner_path.name}: differs from the {winner_label} report")
    summary = (
        f"single FVU {reports['single'].fvu!r} | dual FVU {reports['dual'].fvu!r} | winner {winner_label}"
    )
    if stdout.strip() != summary:
        problems.append(f"printed summary {stdout.strip()!r} != {summary!r}")
    if call.truth is not None:
        winner = reports[winner_label]
        if winner.best != call.truth or winner.fvu != 0.0:
            problems.append(f"on-grid fit returned {winner.best} FVU {winner.fvu!r}, truth {call.truth}")
    return problems


def check_call(call, workdir: Path, returncode: int, stdout: str) -> list[str]:
    """Problems found in one call's outputs; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        if call.kind == "fit":
            return _check_fit(call, workdir, stdout)
        if call.kind == "simulate":
            scan = read_scan(workdir / call.outputs[0])
            if len(scan) != call.expected_rows:
                return [f"{len(scan)} scan rows, expected {call.expected_rows}"]
            if not all(math.isfinite(p) for p in scan.powers_dbm()):
                return ["non-finite total power"]
            return []
        rows = len(_data_lines(workdir / call.outputs[0])) - 1
        return [] if rows == call.expected_rows else [f"{rows} rows, expected {call.expected_rows}"]
    except (OSError, FileFormatError, ValueError) as exc:
        return [f"unreadable output: {exc}"]


def compare_passes(call, first: Path, again: Path) -> list[str]:
    return [
        f"{name}: not byte-identical to {first.name}/{name}"
        for name in call.outputs
        if (first / name).read_bytes() != (again / name).read_bytes()
    ]


# --- stored references ----------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_DIR / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def _close_db(got: float, want: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= REFERENCE_TOLERANCE["power_db"]


def check_reference_simulate(expected: dict, workdir: Path) -> list[str]:
    rows = _data_lines(workdir / expected["out"])[1:]
    if len(rows) != len(expected["rows"]):
        return [f"reference simulate: {len(rows)} rows, expected {len(expected['rows'])}"]
    problems = []
    for line, want in zip(rows, expected["rows"]):
        got = [float(tok) for tok in line.split(",")]
        want = [float(tok) for tok in want.split(",")]
        if got[:2] != want[:2] or not all(_close_db(g, w) for g, w in zip(got[2:], want[2:])):
            problems.append(f"reference simulate row {line!r} != {want!r}")
    return problems[:3]


def check_reference_fit(expected: dict, workdir: Path) -> list[str]:
    problems = []
    for label in ("single", "dual"):
        report = read_report(workdir / expected[label]["out"])
        want_fvu = float(expected[label]["fvu"])
        if abs(report.fvu - want_fvu) > REFERENCE_TOLERANCE["fvu_rel"] * want_fvu:
            problems.append(f"reference {label} FVU {report.fvu!r}, expected {want_fvu!r}")
        if repr(report.best) != expected[label]["best"]:
            problems.append(f"reference {label} best {report.best!r}, expected {expected[label]['best']}")
    return problems
