"""File formats: scan CSVs, the material database, scene files, fit reports.

All formats are line-oriented UTF-8 text with LF line endings and
locale-independent number formatting (shortest representation that parses
back to the identical float, never fewer than the digits needed for an
exact round trip). Every reader sees the same data lines (_data_lines):
a leading byte-order mark, as spreadsheet tools write it, is dropped,
blank lines and '#' comments are skipped, and whitespace around a line is
ignored. Readers reject trailing garbage and report 1-based line numbers.

Scan CSV: header `angle_deg,delta_h_cm,power_dbm`, one record per receiver
position. Azimuth 0 is the wall normal at the wall center; positive angles
lie on the specular side. Simulated scans append `specular_dbm,diffuse_dbm`
columns; readers accept either shape and use the first three columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .geometry import ScanSpec, Scene, Wall, height_m_to_cm
from .lobes import LobeModel, LobeParams
from .materials import Material, MaterialDatabase

__all__ = [
    "FileFormatError",
    "ScanPoint",
    "Scan",
    "height_m_to_cm",
    "read_scan",
    "write_scan",
    "write_simulated_scan",
    "write_lines",
    "parse_float",
    "parse_int",
    "scan_from_records",
    "read_materials",
    "default_materials",
    "TraceEntry",
    "FitReport",
    "write_report",
    "read_report",
    "read_scene",
]

SCAN_HEADER = "angle_deg,delta_h_cm,power_dbm"
SIM_SCAN_HEADER = "angle_deg,delta_h_cm,power_dbm,specular_dbm,diffuse_dbm"

_LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3}


class FileFormatError(ValueError):
    """Malformed input file; message carries `path:line:`."""


def _err(source: str, lineno: int, message: str) -> FileFormatError:
    return FileFormatError(f"{source}:{lineno}: {message}")


# the report's model tokens, resolved once
_SINGLE, _DUAL = LobeModel.SINGLE_LOBE.value, LobeModel.DUAL_LOBE.value


def _fmt(x: float) -> str:
    return repr(float(x))


def parse_float(token: str) -> float:
    """float(token) in the one number grammar of input files and CLI options.

    float() alone would also read "1_0" as 10 and non-ASCII digits; both are refused.
    """
    if "_" in token or not token.isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def parse_int(token: str) -> int:
    """int(token) of plain ASCII digits with an optional leading '-', the integer grammar of files and options."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _parse_float(token: str, source: str, lineno: int, what: str) -> float:
    try:
        value = parse_float(token)
    except ValueError:
        raise _err(source, lineno, f"non-numeric {what}: {token!r}") from None
    if math.isnan(value):
        raise _err(source, lineno, f"{what} must not be NaN")
    return value


def _parse_finite(token: str, source: str, lineno: int, what: str) -> float:
    value = _parse_float(token, source, lineno, what)
    if math.isinf(value):
        raise _err(source, lineno, f"{what} must be finite, got {value!r}")
    return value


def _parse_int(token: str, source: str, lineno: int, what: str) -> int:
    try:
        return parse_int(token)
    except ValueError:
        raise _err(source, lineno, f"non-integer {what}: {token!r}") from None


@dataclass(frozen=True)
class ScanPoint:
    """One receiver sample. delta_h is stored in the file unit (cm) so a
    read-write cycle preserves the file bytes; delta_h_m derives from it."""

    azimuth_deg: float
    delta_h_cm: float
    power_dbm: float

    def __post_init__(self):
        if not -90.0 <= self.azimuth_deg <= 90.0:
            raise ValueError(f"azimuth must be in [-90, 90] deg, got {self.azimuth_deg}")

    @property
    def delta_h_m(self) -> float:
        return self.delta_h_cm * 0.01

    @property
    def key(self) -> tuple[float, float]:
        return (self.azimuth_deg, self.delta_h_cm)


@dataclass(frozen=True)
class Scan:
    """Ordered receiver samples; position keys are unique and M >= 2."""

    points: tuple[ScanPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 2:
            raise ValueError(f"a scan needs at least 2 points, got {len(self.points)}")
        seen = set()
        for pt in self.points:
            if pt.key in seen:
                raise ValueError(f"duplicate scan position {pt.key}")
            seen.add(pt.key)

    def __len__(self) -> int:
        return len(self.points)

    def powers_dbm(self) -> list[float]:
        return [pt.power_dbm for pt in self.points]

    def plane_only(self) -> "Scan":
        kept = tuple(pt for pt in self.points if pt.delta_h_cm == 0.0)
        if len(kept) < 2:
            raise ValueError("fewer than 2 in-plane (delta_h = 0) points in scan")
        return Scan(points=kept)


def _data_lines(path):
    """Yield (1-based line number, line) for every line that is neither blank
    nor a '#' comment, with surrounding whitespace stripped: the one line
    grammar of every input format."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        text = fh.read()
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield no, line


def read_scan(path) -> Scan:
    """Parse and validate a scan CSV (measured 3-column or simulated 5-column)."""
    source = str(path)
    lines = _data_lines(path)
    header_no, header = next(lines, (0, None))
    if header is None:
        raise FileFormatError(f"{source}: empty scan file")
    if header not in (SCAN_HEADER, SIM_SCAN_HEADER):
        raise _err(source, header_no, f"bad header {header!r}; expected {SCAN_HEADER!r}")
    names = header.split(",")
    points = []
    seen: dict[tuple[float, float], int] = {}
    for no, line in lines:
        fields = line.split(",")
        if len(fields) != len(names):
            raise _err(source, no, f"expected {len(names)} fields, got {len(fields)}")
        values = [_parse_finite(tok, source, no, name) for tok, name in zip(fields[:3], names)]
        # simulated scans write -inf to the split columns where a path family is empty
        values += [_parse_float(tok, source, no, name) for tok, name in zip(fields[3:], names[3:])]
        try:
            point = ScanPoint(azimuth_deg=values[0], delta_h_cm=values[1], power_dbm=values[2])
        except ValueError as exc:
            raise _err(source, no, str(exc)) from None
        if point.key in seen:
            raise _err(source, no, f"duplicate position {point.key} (first at line {seen[point.key]})")
        seen[point.key] = no
        points.append(point)
    if not points:
        raise FileFormatError(f"{source}: scan file has a header but no records")
    try:
        return Scan(points=tuple(points))
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from None


def write_scan(scan: Scan, path, header_comment: str | None = None) -> None:
    lines = [SCAN_HEADER]
    for pt in scan.points:
        lines.append(f"{_fmt(pt.azimuth_deg)},{_fmt(pt.delta_h_cm)},{_fmt(pt.power_dbm)}")
    write_lines(path, lines, header_comment)


def write_simulated_scan(records, path, header_comment: str | None = None) -> None:
    """Write simulate() output; same shape as a measured scan plus the split columns."""
    lines = [SIM_SCAN_HEADER]
    for rec in records:
        lines.append(
            f"{_fmt(rec.azimuth_deg)},{_fmt(rec.delta_h_cm)},{_fmt(rec.power_dbm)},"
            f"{_fmt(rec.specular_dbm)},{_fmt(rec.diffuse_dbm)}"
        )
    write_lines(path, lines, header_comment)


def scan_from_records(records) -> Scan:
    """Scan view of simulated records (drops the specular/diffuse split)."""
    return Scan(
        points=tuple(
            ScanPoint(azimuth_deg=r.azimuth_deg, delta_h_cm=r.delta_h_cm, power_dbm=r.power_dbm) for r in records
        )
    )


def write_lines(path, lines, header_comment: str | None = None) -> None:
    """Write lines with LF endings, after a `# header_comment` line if one is given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header_comment is not None:
            # escaped, a line break in a value (an --out path, say) cannot end the comment line
            fh.write("# " + header_comment.replace("\r", "\\r").replace("\n", "\\n") + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")


# --- material database ------------------------------------------------------

_MATERIAL_KEYS = {"eps_r": None, "h_rms_mm": "mm", "thickness_cm": "cm"}


def _parse_length(token: str, default_unit: str, source: str, lineno: int, what: str) -> float:
    parts = token.split()
    if len(parts) == 1:
        unit = default_unit
    elif len(parts) == 2:
        unit = parts[1]
        if unit not in _LENGTH_UNITS:
            raise _err(source, lineno, f"unknown unit {unit!r} for {what} (use m, cm, or mm)")
    else:
        raise _err(source, lineno, f"malformed {what} value {token!r}")
    return _parse_finite(parts[0], source, lineno, what) * _LENGTH_UNITS[unit]


def _close_material(db: MaterialDatabase, record, source: str) -> None:
    """Add the open record (name, line number, fields), if any, to db."""
    if record is None:
        return
    name, lineno, fields = record
    missing = [k for k in _MATERIAL_KEYS if k not in fields]
    if missing:
        raise _err(source, lineno, f"material {name!r} is missing {', '.join(missing)}")
    try:
        db.add(Material(name=name, eps_r=fields["eps_r"], h_rms=fields["h_rms_mm"]))
    except ValueError as exc:
        raise _err(source, lineno, str(exc)) from None


def read_materials(path) -> MaterialDatabase:
    """Parse a material database file (see data/materials.txt for the format)."""
    source = str(path)
    db = MaterialDatabase()
    record = None  # the open `material` record: (name, line number, fields)
    for no, line in _data_lines(path):
        key, _, value = line.partition(" ")
        value = value.strip()
        if key == "material":
            _close_material(db, record, source)
            if not value:
                raise _err(source, no, "material record needs a name")
            record = (value, no, {})
        elif key in _MATERIAL_KEYS:
            if record is None:
                raise _err(source, no, f"{key} outside a material record")
            name, _, fields = record
            if key in fields:
                raise _err(source, no, f"duplicate key {key} for material {name!r}")
            unit = _MATERIAL_KEYS[key]
            if unit is None:
                fields[key] = _parse_finite(value, source, no, key)
            else:
                fields[key] = _parse_length(value, unit, source, no, key)
            # the half-space reflection model never reads the slab thickness,
            # but a record must still give a valid one
            if key == "thickness_cm" and fields[key] <= 0.0:
                raise _err(source, no, f"thickness_cm must be > 0 m, got {fields[key]!r}")
        else:
            raise _err(source, no, f"unknown key {key!r}")
    _close_material(db, record, source)
    if len(db) == 0:
        raise FileFormatError(f"{source}: no material records found")
    return db


def default_materials() -> MaterialDatabase:
    """The shipped four-surface database."""
    return read_materials(Path(__file__).parent / "data" / "materials.txt")


# --- scene files -------------------------------------------------------------

_SCENE_SCALARS = {
    "frequency_ghz", "wall_width_m", "wall_height_m", "scan_radius_m", "scan_step_deg", "scan_range_deg"
}
_SCENE_VECTORS = {"wall_center", "wall_normal", "tx"}
# the inline scan keys and the ScanSpec fields they set; ScanSpec supplies the rest
_SCENE_SCAN_KEYS = {
    "scan_radius_m": "radius",
    "scan_step_deg": "azimuth_step_deg",
    "scan_range_deg": "azimuth_range_deg",
    "scan_heights_m": "height_offsets",
}


def read_scene(path) -> tuple[Scene, ScanSpec | None]:
    """Parse a scene file; returns the scene and an optional inline scan spec."""
    source = str(path)
    values: dict[str, object] = {}
    for no, line in _data_lines(path):
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in values:
            raise _err(source, no, f"duplicate key {key}")
        if key == "material":
            values[key] = rest
        elif key in _SCENE_SCALARS:
            values[key] = _parse_finite(rest, source, no, key)
        elif key in _SCENE_VECTORS or key == "scan_heights_m":
            tokens = rest.split()
            vec = [_parse_finite(t, source, no, key) for t in tokens]
            if key in _SCENE_VECTORS and len(vec) != 3:
                raise _err(source, no, f"{key} needs 3 components, got {len(vec)}")
            values[key] = vec
        else:
            raise _err(source, no, f"unknown key {key!r}")
    required = {"material", "frequency_ghz", "wall_center", "wall_normal", "wall_width_m", "wall_height_m", "tx"}
    missing = sorted(required - values.keys())
    if missing:
        raise FileFormatError(f"{source}: missing keys: {', '.join(missing)}")
    try:
        wall = Wall(
            center=values["wall_center"],
            normal=values["wall_normal"],
            width=values["wall_width_m"],
            height=values["wall_height_m"],
            material=values["material"],
        )
        scene = Scene(wall=wall, tx=values["tx"], carrier_frequency=values["frequency_ghz"] * 1e9)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from None
    spec_fields = {field: values[key] for key, field in _SCENE_SCAN_KEYS.items() if key in values}
    if not spec_fields:
        return scene, None
    try:
        return scene, ScanSpec(**spec_fields)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from None


# --- fit reports --------------------------------------------------------------

_TRACE_HEADER = "round stage model s_coeff alpha_r alpha_i lambda_mix fvu"


@dataclass(frozen=True)
class TraceEntry:
    round: int
    stage: str
    params: LobeParams
    fvu: float


@dataclass(frozen=True)
class FitReport:
    best: LobeParams
    fvu: float
    s_initial: float
    trace: tuple[TraceEntry, ...]
    plane_only: bool
    converged: bool


def _params_text(params) -> str:
    """The five report tokens of params; a single lobe, the one model without alpha_i, writes "-" for the last two."""
    if params.alpha_i is None:
        return f"{_SINGLE} {float(params.s_coeff)!r} {params.alpha_r} - -"
    return f"{_DUAL} {float(params.s_coeff)!r} {params.alpha_r} {params.alpha_i} {float(params.lambda_mix)!r}"


def _params_from_tokens(tokens, source: str, lineno: int) -> LobeParams:
    model_token, s_token, ar_token, ai_token, lam_token = tokens
    try:
        model = LobeModel(model_token)
    except ValueError:
        raise _err(source, lineno, f"unknown model {model_token!r}") from None
    s_value = _parse_float(s_token, source, lineno, "s_coeff")
    alpha_r = _parse_int(ar_token, source, lineno, "alpha_r")
    alpha_i = lam = None
    if ai_token != "-":
        alpha_i = _parse_int(ai_token, source, lineno, "alpha_i")
        lam = _parse_float(lam_token, source, lineno, "lambda_mix")
    try:
        return LobeParams(model=model, s_coeff=s_value, alpha_r=alpha_r, alpha_i=alpha_i, lambda_mix=lam)
    except ValueError as exc:
        raise _err(source, lineno, str(exc)) from None


def write_report(report: FitReport, path, header_comment: str | None = None) -> None:
    """Serialize a FitReport; read_report(write_report(r)) == r."""
    lines = []
    best = report.best
    lines.append(f"best {_params_text(best)}")
    lines.append(f"fvu {_fmt(report.fvu)}")
    lines.append(f"s_initial {_fmt(report.s_initial)}")
    lines.append(f"plane_only {'true' if report.plane_only else 'false'}")
    lines.append(f"converged {'true' if report.converged else 'false'}")
    lines.append(f"trace {len(report.trace)}")
    lines.append(_TRACE_HEADER)
    lines.extend(f"{e.round} {e.stage} {_params_text(e.params)} {float(e.fvu)!r}" for e in report.trace)
    write_lines(path, lines, header_comment)


def read_report(path) -> FitReport:
    """Parse a fit report in write_report's layout: each header key once,
    `trace N`, the trace column header, then the N trace rows."""
    source = str(path)
    lines = _data_lines(path)
    fields: dict[str, object] = {}
    trace_rows: list = []
    expect_trace = None
    for no, line in lines:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in fields:
            raise _err(source, no, f"duplicate key {key}")
        if key == "best":
            tokens = rest.split()
            if len(tokens) != 5:
                raise _err(source, no, "malformed best-parameters line")
            fields["best"] = _params_from_tokens(tokens, source, no)
        elif key in ("fvu", "s_initial"):
            fields[key] = _parse_float(rest, source, no, key)
        elif key in ("plane_only", "converged"):
            if rest not in ("true", "false"):
                raise _err(source, no, f"{key} must be true or false, got {rest!r}")
            fields[key] = rest == "true"
        elif key == "trace":
            expect_trace = _parse_int(rest, source, no, "trace count")
            break
        else:
            raise _err(source, no, f"unknown key {key!r}")
    if expect_trace is not None:
        # at end of file, the error names the `trace N` line
        no, line = next(lines, (no, None))
        if line != _TRACE_HEADER:
            raise _err(source, no, f"expected the trace column header {_TRACE_HEADER!r}")
    for no, line in lines:
        if line == _TRACE_HEADER:
            raise _err(source, no, "repeated trace column header")
        tokens = line.split()
        if len(tokens) != 8:
            raise _err(source, no, f"expected 8 trace fields, got {len(tokens)}")
        if tokens[1] not in ("A", "B"):
            raise _err(source, no, f"trace stage must be A or B, got {tokens[1]!r}")
        round_no = _parse_int(tokens[0], source, no, "round")
        params = _params_from_tokens(tokens[2:7], source, no)
        fvu = _parse_float(tokens[7], source, no, "fvu")
        trace_rows.append(TraceEntry(round=round_no, stage=tokens[1], params=params, fvu=fvu))
    missing = sorted({"best", "fvu", "s_initial", "plane_only", "converged"} - fields.keys())
    if missing:
        raise FileFormatError(f"{source}: missing keys: {', '.join(missing)}")
    if expect_trace is None or expect_trace != len(trace_rows):
        raise FileFormatError(f"{source}: trace row count mismatch (declared {expect_trace}, got {len(trace_rows)})")
    return FitReport(trace=tuple(trace_rows), **fields)


