"""Command-line interface: theory tables, pattern sweeps, scan simulation, fitting.

Every output file begins with one comment line recording the package
version, the fully resolved configuration, and a digest of each input
file, so identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage error, 2 input-data error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import math
import os
import shutil
import sys

if __name__ == "__main__":
    # before numpy loads OpenBLAS: idle workers sleep after 2^20 cycles, not 2^28 (~0.13 s of
    # CPU a process); a caller's value wins, and an importer's environment stays untouched
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

import numpy as np

from . import __version__, db_to_linear, dbm_to_watts, watts_to_dbm, wavelength_for_frequency
from .fileio import (
    default_materials,
    parse_float,
    parse_int,
    read_materials,
    read_scan,
    read_scene,
    write_lines,
    write_report,
    write_simulated_scan,
)
from .fitting import ScanEvaluator, compare_models, grid_fit
from .geometry import MAX_ANGLES, ScanSpec, SurfacePaths, paper_scene, scan_positions
from .lobes import LobeModel, LobeParams, NormalizationMode, RadioLink, pattern_sweep
from .materials import IncidenceContext, Material, Polarization, initial_scattering_coefficient
from .raytrace import simulate_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_FREQ_GHZ = 28.0

_MODES = {"hemisphere": NormalizationMode.HEMISPHERE, "line": NormalizationMode.PAPER_LINE}
# the input files, by option name in sorted order
_INPUTS = ("materials_file", "scan", "scene")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # type=float and type=int options read numbers in the grammar of the input files
        self.register("type", float, parse_float)
        self.register("type", int, parse_int)

    def error(self, message):
        raise UsageError(message)


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:12]


def _header(args: argparse.Namespace) -> str:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command") and v is not None}
    config_text = " ".join(f"{k}={v}" for k, v in config.items())
    inputs = {name: getattr(args, name, None) for name in _INPUTS}
    digest_text = " ".join(f"{name}={_digest(path)}" for name, path in inputs.items() if path)
    parts = [f"mmscatter {__version__}", args.command, config_text]
    if digest_text:
        parts.append(f"inputs: {digest_text}")
    return " | ".join(parts)


def _outputs(args) -> list[str]:
    """Every file the call writes: --out, after the .single and .dual siblings of fit --model both."""
    if getattr(args, "model", None) != "both":
        return [args.out]
    base, ext = os.path.splitext(args.out)
    return [f"{base}.single{ext}", f"{base}.dual{ext}", args.out]


def _refuse_overwriting_inputs(args) -> None:
    """Raise before anything is written if an output of the call is one of its input files."""
    for out in filter(os.path.exists, _outputs(args)):
        for name in _INPUTS:
            path = getattr(args, name, None)
            if path and os.path.exists(path) and os.path.samefile(path, out):
                raise ValueError(f"output {out} is the --{name.replace('_', '-')} input {path}; not overwriting it")


def _link(args, frequency_hz: float) -> RadioLink:
    gain = db_to_linear(args.gain_dbi)
    return RadioLink(
        p_t=dbm_to_watts(args.p_t_dbm),
        g_t=gain,
        g_r=gain,
        wavelength=wavelength_for_frequency(frequency_hz),
    )


def _materials(args, db) -> list[tuple[str, Material]]:
    """(name, material) of --material, or of every material in db for 'all'."""
    names = db.names() if args.material == "all" else [args.material]
    return [(name, db.get(name)) for name in names]


def _theta_grid(args, *, zero_ok: bool) -> list[float]:
    """The --theta-min/--theta-max/--theta-step angles: in [0, 90) degrees if zero_ok, else in (0, 90)."""
    lo, hi, step = args.theta_min, args.theta_max, args.theta_step
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < step < math.inf):
        raise ValueError(f"--theta-min/--theta-max/--theta-step must be finite, the step > 0; got {lo}/{hi}/{step}")
    if lo > hi:
        raise ValueError(f"--theta-min {lo} exceeds --theta-max {hi}")
    # every angle from lo up to hi, with hi itself counted to 1e-9
    steps = (hi + 1e-9 - lo) / step
    if not steps < MAX_ANGLES:
        raise ValueError(f"--theta-step {step} gives {steps + 1:.6g} angles, more than {MAX_ANGLES:,}")
    grid = [round(lo + k * step, 10) for k in range(math.floor(steps) + 1)]
    if not ((lo >= 0.0 if zero_ok else lo > 0.0) and grid[-1] < 90.0):
        bounds = "[0, 90)" if zero_ok else "(0, 90)"
        raise ValueError(f"--theta-min/--theta-max must give angles in {bounds} degrees, got {lo} to {grid[-1]}")
    return grid


def _resolve_scene(args, db):
    """Scene from --scene, else the default layout from --material/--theta-deg.

    The scene carries the one carrier frequency of the call: a scene file's
    frequency_ghz, which an explicit --freq-ghz must match, else --freq-ghz,
    else DEFAULT_FREQ_GHZ, which the call's header then records.
    """
    inline_spec = None
    if args.scene:
        scene, inline_spec = read_scene(args.scene)
        if args.freq_ghz is not None and args.freq_ghz * 1e9 != scene.carrier_frequency:
            raise ValueError(
                f"--freq-ghz {args.freq_ghz!r} conflicts with frequency_ghz {scene.carrier_frequency / 1e9!r}"
                f" of scene file {args.scene}"
            )
        args.freq_ghz = scene.carrier_frequency / 1e9
    else:
        if args.freq_ghz is None:
            args.freq_ghz = DEFAULT_FREQ_GHZ
        scene = paper_scene(args.material, args.theta_deg, frequency_hz=args.freq_ghz * 1e9)
    db.get(scene.wall.material)
    return scene, inline_spec


def _resolve_scanspec(args, inline_spec) -> ScanSpec:
    """Scan layout: each command-line option, else the scene file's inline spec, else the default."""
    base = inline_spec if inline_spec is not None else ScanSpec()
    heights = base.height_offsets
    if args.heights is not None:
        try:
            heights = tuple(parse_float(tok) for tok in args.heights.split(","))
        except ValueError as exc:
            raise ValueError(f"--heights takes comma-separated numbers in m, got {args.heights!r}: {exc}") from None
    return ScanSpec(
        radius=args.radius if args.radius is not None else base.radius,
        azimuth_step_deg=args.step_deg if args.step_deg is not None else base.azimuth_step_deg,
        azimuth_range_deg=args.range_deg if args.range_deg is not None else base.azimuth_range_deg,
        height_offsets=heights,
    )


def _theoretical_s(scene, db, args) -> float:
    material = db.get(scene.wall.material)
    ctx = IncidenceContext(
        theta_i=scene.incidence_angle,
        wavelength=wavelength_for_frequency(scene.carrier_frequency),
        polarization=Polarization[args.pol],
    )
    return initial_scattering_coefficient(material, ctx).s_coeff


def _lobe_params(args, s_coeff: float) -> LobeParams:
    return LobeParams.from_shape(LobeModel(args.model), s_coeff, (args.alpha_r, args.alpha_i, args.lambda_mix))


# --- subcommands ---------------------------------------------------------------


def _cmd_theory(args, db) -> int:
    wavelength = wavelength_for_frequency(args.freq_ghz * 1e9)
    materials = _materials(args, db)
    theta_grid = _theta_grid(args, zero_ok=True)
    rows = []
    for name, material in materials:
        for theta_deg in theta_grid:
            ctx = IncidenceContext(
                theta_i=math.radians(theta_deg), wavelength=wavelength, polarization=Polarization[args.pol]
            )
            bundle = initial_scattering_coefficient(material, ctx)
            rows.append(
                f"{name},{theta_deg!r},{bundle.gamma!r},{bundle.rayleigh_r!r},"
                f"{bundle.gamma_rough!r},{bundle.s_coeff!r}"
            )
    columns = "material,theta_i_deg,gamma,rayleigh_r,gamma_rough,s_coeff"
    write_lines(args.out, [columns, *rows], header_comment=_header(args))
    return EXIT_OK


def _cmd_pattern(args, db) -> int:
    link = _link(args, args.freq_ghz * 1e9)
    # lobes.pattern_sweep takes angles in (0, 90) only
    theta_grid = _theta_grid(args, zero_ok=False)
    template = _lobe_params(args, 0.0)
    rows = []
    for name, material in _materials(args, db):
        sweeps = pattern_sweep(
            material, template, link, theta_grid, _MODES[args.mode], Polarization[args.pol], fixed_s=args.s
        )
        rows.extend(
            f"{theta_deg!r},{direction},{watts_to_dbm(p_r)!r},{template.model.value},{name}"
            for direction, sweep in zip(("incident", "specular"), sweeps)
            for theta_deg, p_r in zip(theta_grid, sweep)
        )
    header = _header(args) + " | extent=unit-patch"
    write_lines(args.out, ["theta_i_deg,direction,p_r_dbm,model,material", *rows], header_comment=header)
    return EXIT_OK


def _cmd_simulate(args, db) -> int:
    scene, inline_spec = _resolve_scene(args, db)
    spec = _resolve_scanspec(args, inline_spec)
    link = _link(args, scene.carrier_frequency)
    s_coeff = args.s if args.s is not None else _theoretical_s(scene, db, args)
    params = _lobe_params(args, s_coeff)
    records = simulate_scan(
        scene, spec, params, link, db, args.tiles_m, _MODES[args.mode], Polarization[args.pol]
    )
    header = _header(args) + " | extent=tile-area"
    write_simulated_scan(records, args.out, header_comment=header)
    return EXIT_OK


def _cmd_fit(args, db) -> int:
    scene, inline_spec = _resolve_scene(args, db)
    scan = read_scan(args.scan)
    link = _link(args, scene.carrier_frequency)
    s_initial = args.s_initial if args.s_initial is not None else _theoretical_s(scene, db, args)
    # one pattern per call, which every --model path fits against
    evaluate = ScanEvaluator(
        scan,
        scene,
        link,
        db,
        scan_radius=args.radius if args.radius is not None else (inline_spec or ScanSpec()).radius,
        tile_edge=args.tiles_m,
        mode=_MODES[args.mode],
        polarization=Polarization[args.pol],
        plane_only=args.plane_only,
    )
    header = _header(args)
    if args.model == "both":
        comparison = compare_models(evaluate, s_initial)
        single_out, dual_out, _ = _outputs(args)
        write_report(comparison.single, single_out, header_comment=header)
        write_report(comparison.dual, dual_out, header_comment=header)
        # the winner's report is its sibling's bytes
        shutil.copyfile(dual_out if comparison.winner is LobeModel.DUAL_LOBE else single_out, args.out)
        print(
            f"single FVU {comparison.single.fvu!r} | dual FVU {comparison.dual.fvu!r} | winner {comparison.winner.value}"
        )
        return EXIT_OK if (comparison.single.converged and comparison.dual.converged) else EXIT_NUMERIC
    kind = LobeModel(args.model)
    report = grid_fit(evaluate, kind, s_initial)
    write_report(report, args.out, header_comment=header)
    print(f"{kind.value} FVU {report.fvu!r} (converged={report.converged})")
    return EXIT_OK if report.converged else EXIT_NUMERIC


def _cmd_angles(args, db) -> int:
    scene, inline_spec = _resolve_scene(args, db)
    spec = _resolve_scanspec(args, inline_spec)
    # the path over the wall center, toward each receiver
    paths = SurfacePaths(scene.tx, scene.wall.center[None], scene.wall.normal)
    r_i, cos_ti = float(paths.r_i[0]), paths.cos_ti[0]
    rows = []
    keys, positions = scan_positions(scene, spec)
    r_s, cos_psi_r, cos_psi_i = (a[:, 0] for a in paths.receiver(positions))
    for (azimuth_deg, delta_h), rx, r, c_r, c_i in zip(keys, positions, r_s.tolist(), cos_psi_r, cos_psi_i):
        angles = np.arccos([cos_ti, paths.cos_ts(rx)[0], c_r, c_i]).tolist()
        rows.append(
            f"{azimuth_deg!r},{delta_h!r},{r_i!r},{r!r}," + ",".join(repr(math.degrees(a)) for a in angles)
        )
    columns = "azimuth_deg,delta_h_m,r_i_m,r_s_m,theta_i_deg,theta_s_deg,psi_r_deg,psi_i_deg"
    write_lines(args.out, [columns, *rows], header_comment=_header(args))
    return EXIT_OK


# --- parser ---------------------------------------------------------------------


def _add_shared(parser, with_scene: bool = False) -> None:
    parser.add_argument("--materials-file", help="material database file (default: built-in table)")
    # a scene command leaves it unset: _resolve_scene takes the scene file's, else DEFAULT_FREQ_GHZ
    fallback = "the scene file's, else " if with_scene else ""
    parser.add_argument(
        "--freq-ghz",
        type=float,
        default=None if with_scene else DEFAULT_FREQ_GHZ,
        help=f"carrier frequency (default: {fallback}{DEFAULT_FREQ_GHZ:g})",
    )
    parser.add_argument("--pol", choices=("TE", "TM"), default="TE", help="polarization for Gamma (default TE)")
    parser.add_argument("--out", required=True, help="output file path")
    if with_scene:
        parser.add_argument("--scene", help="scene file (overrides --material/--theta-deg)")
        parser.add_argument("--material", default="rough_wall", help="wall material name (default rough_wall)")
        parser.add_argument("--theta-deg", type=float, default=30.0, help="incidence angle, degrees (default 30)")


def _add_sweep(parser) -> None:
    parser.add_argument("--material", default="all", help="material name, or 'all' (default)")
    parser.add_argument("--theta-min", type=float, default=1.0)
    parser.add_argument("--theta-max", type=float, default=89.0)
    parser.add_argument("--theta-step", type=float, default=1.0)


def _add_link(parser) -> None:
    parser.add_argument("--p-t-dbm", type=float, default=10.0, help="transmit power, dBm (default 10)")
    parser.add_argument("--gain-dbi", type=float, default=15.0, help="Tx/Rx antenna gain, dBi (default 15)")


def _add_model(parser, default_model: str) -> None:
    parser.add_argument("--model", choices=("single", "dual"), default=default_model)
    parser.add_argument("--alpha-r", type=int, default=4, help="forward lobe width factor (default 4)")
    parser.add_argument("--alpha-i", type=int, default=10, help="backscatter lobe width factor (default 10)")
    parser.add_argument("--lambda", dest="lambda_mix", type=float, default=0.2, help="forward/backscatter mix (default 0.2)")
    parser.add_argument("--mode", choices=tuple(_MODES), default="hemisphere", help="lobe normalization mode")


def _add_scan_layout(parser) -> None:
    parser.add_argument("--radius", type=float, default=None, help="scan radius, m (default 1.5)")
    parser.add_argument("--step-deg", type=float, default=None, help="azimuth step, degrees (default 10)")
    parser.add_argument("--range-deg", type=float, default=None, help="azimuth range, degrees (default 180)")
    parser.add_argument("--heights", default=None, help="comma-separated height offsets in m (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="mmscatter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("theory", help="reflection/roughness/scattering tables per material")
    _add_sweep(p)
    _add_shared(p)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("pattern", help="scattered power vs incidence angle sweeps")
    p.add_argument("--s", type=float, default=None, help="fixed scattering coefficient (default: per-angle theory)")
    _add_sweep(p)
    _add_model(p, default_model="single")
    _add_link(p)
    _add_shared(p)
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("simulate", help="simulate an arc/semicylinder scan")
    p.add_argument("--s", type=float, default=None, help="scattering coefficient (default: theoretical value)")
    p.add_argument("--tiles-m", type=float, default=0.1, help="wall tile edge, m (default 0.1)")
    _add_model(p, default_model="single")
    _add_scan_layout(p)
    _add_link(p)
    _add_shared(p, with_scene=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit lobe-model parameters to a scan")
    p.add_argument("--scan", required=True, help="scan CSV to fit")
    p.add_argument("--s-initial", type=float, default=None, help="initial scattering coefficient (default: theory)")
    p.add_argument("--plane-only", action="store_true", help="fit only delta_h = 0 records")
    p.add_argument("--tiles-m", type=float, default=0.1, help="wall tile edge, m (default 0.1)")
    p.add_argument("--model", choices=("single", "dual", "both"), default="both")
    p.add_argument("--mode", choices=tuple(_MODES), default="hemisphere", help="lobe normalization mode")
    p.add_argument("--radius", type=float, default=None, help="scan radius, m (default 1.5)")
    _add_link(p)
    _add_shared(p, with_scene=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("angles", help="dump per-position scattering geometry")
    _add_scan_layout(p)
    _add_shared(p, with_scene=True)
    p.set_defaults(func=_cmd_angles)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # input errors, exit 2: FileFormatError and DegenerateScanError among the
    # ValueErrors, and every OSError of a path that cannot be read or written
    try:
        _refuse_overwriting_inputs(args)
        db = read_materials(args.materials_file) if args.materials_file else default_materials()
        return args.func(args, db)
    except (OSError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    code = main()
    gc.freeze()  # the interpreter's final collections skip frozen objects; outputs are closed already
    sys.exit(code)
