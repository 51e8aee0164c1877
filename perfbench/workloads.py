"""Seeded inputs and CLI call lists for the three benchmark workloads.

Every input is drawn from `random.Random(seed)`, so one seed always gives
the same files and the same argument lists. The program under test only
ever sees the generated files and arguments.

Why the draws look the way they do:

* Noisy fit truths take the scattering coefficient at its theoretical
  value, which is also the fit's default `--s-initial`. The staged fit
  then converges in two rounds for nearly every truth, so the work per
  call does not depend on the seed; an off-grid truth S adds a third
  round to some fits and not others (2,240 against 3,360 candidates).
* Incidence angles are stratified: each noisy scan of a pass draws from
  its own slice of 20-60 degrees, so that every seed covers the range.
  The quadrature's work varies by under 4% across such angles; it drops
  only where the tiling is symmetric about the transmitter (30 degrees
  does 62% of the work), which a draw rounded to 0.01 degree rarely hits.
* The refinement study draws the material, S and the mix, but keeps the
  CLI's default lobe widths and one generic incidence angle. Its tiling
  ladder uses the single-lobe model (one width, alpha_r 4) and the
  line-mode call the dual-lobe model (alpha_r 4, alpha_i 10). The finest
  tiling is one call whose normalization table costs 1.0 s at alpha 1
  and 3.4 s at alpha 10, so a drawn width would make the study's cost
  follow the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from mmscatter import dbm_to_watts, wavelength_for_frequency
from mmscatter.fileio import Scan, ScanPoint, default_materials, write_scan, write_simulated_scan
from mmscatter.geometry import ScanSpec, paper_scene
from mmscatter.lobes import LobeModel, LobeParams, RadioLink
from mmscatter.materials import IncidenceContext, initial_scattering_coefficient
from mmscatter.raytrace import simulate_scan

ARC_HEIGHTS = (0.0,)
CYLINDER_HEIGHTS = (0.0, 0.1, 0.2, 0.3)
CYLINDER_HEIGHTS_ARG = "0,0.1,0.2,0.3"
REFINE_EDGES = (0.2, 0.1, 0.05, 0.025)
REFINE_THETA_DEG = 41.7
FIT_TILE_EDGE = 0.1
NOISE_DB = 1.0
THETA_RANGE_DEG = (20.0, 60.0)
FIT_ALPHAS = tuple(range(1, 11))
# CLI defaults of `simulate`/`pattern`, used by the refinement study
DEFAULT_ALPHA_R = 4
DEFAULT_ALPHA_I = 10

# CLI defaults: 28 GHz, 10 dBm transmit power, 15 dBi antennas
FREQ_HZ = 28e9
WAVELENGTH = wavelength_for_frequency(FREQ_HZ)
LINK = RadioLink(p_t=dbm_to_watts(10.0), g_t=10.0**1.5, g_r=10.0**1.5, wavelength=WAVELENGTH)


@dataclass
class Call:
    """One CLI invocation of a pass, with what its checks and metrics need."""

    name: str
    kind: str  # "fit", "simulate", "theory" or "pattern"
    args: list[str]
    outputs: list[str]
    positions: int = 0
    tiles: int = 0
    alphas: tuple[int, ...] = ()
    truth: LobeParams | None = None  # set for the noiseless on-grid fit
    expected_rows: int = 0


@dataclass
class Workload:
    inputs: list[str] = field(default_factory=list)  # file names under the input directory
    calls: list[Call] = field(default_factory=list)  # one timed pass
    ongrid: Call | None = None  # untimed exact-recovery fit, run once per run
    probe: Call | None = None  # follow-up fit that the traced run adds to simulate-refine


def _fmt(x: float) -> str:
    return repr(float(x))


def _theory_s(material: str, theta_deg: float) -> float:
    db = default_materials()
    ctx = IncidenceContext(theta_i=math.radians(theta_deg), wavelength=WAVELENGTH)
    return initial_scattering_coefficient(db.get(material), ctx).s_coeff


def _stratified_thetas(rng: random.Random, n: int) -> list[float]:
    lo, hi = THETA_RANGE_DEG
    width = (hi - lo) / n
    thetas = [round(lo + (k + rng.random()) * width, 2) for k in range(n)]
    rng.shuffle(thetas)
    return thetas


def _tile_count(material: str, theta_deg: float, edge: float) -> int:
    # the tiling rule of raytrace.tile_centers, without building the centers
    wall = paper_scene(material, theta_deg).wall
    return max(1, math.ceil(wall.width / edge)) * max(1, math.ceil(wall.height / edge))


def _random_shape(rng: random.Random, model: LobeModel, s: float) -> LobeParams:
    if model is LobeModel.SINGLE_LOBE:
        return LobeParams(model, s, rng.randint(1, 10))
    # lambda strictly inside (0, 1): at 0 or 1 one lobe width drops out and
    # the grid minimum stops being unique
    alpha_r, alpha_i = rng.randint(1, 10), rng.randint(1, 10)
    return LobeParams(model, s, alpha_r, alpha_i=alpha_i, lambda_mix=round(rng.randint(1, 9) * 0.1, 10))


def _simulate(material: str, theta_deg: float, truth: LobeParams, heights) -> list:
    scene = paper_scene(material, theta_deg, frequency_hz=FREQ_HZ)
    records = simulate_scan(scene, ScanSpec(height_offsets=heights), truth, LINK, default_materials(), FIT_TILE_EDGE)
    if not all(math.isfinite(r.power_dbm) for r in records):
        raise ValueError(f"truth {truth} at {material}/{theta_deg} gives a non-finite power")
    return records


def _fit_call(name: str, scan_file: str, material: str, theta_deg: float, positions: int, extra=()) -> Call:
    out = f"{name}.txt"
    return Call(
        name=name,
        kind="fit",
        args=["fit", "--scan", scan_file, "--material", material, "--theta-deg", _fmt(theta_deg), *extra, "--out", out],
        outputs=[out, f"{name}.single.txt", f"{name}.dual.txt"],
        positions=positions,
        tiles=_tile_count(material, theta_deg, FIT_TILE_EDGE),
        alphas=FIT_ALPHAS,
    )


def _fit_workload(name: str, seed: int, input_dir: Path, heights, noisy_scans: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    positions = len(ScanSpec(height_offsets=heights).azimuths_deg()) * len(heights)
    wl = Workload()

    materials = default_materials().names()
    rng.shuffle(materials)
    thetas = _stratified_thetas(rng, noisy_scans)
    models = [LobeModel.SINGLE_LOBE, LobeModel.DUAL_LOBE] * (noisy_scans // 2)
    rng.shuffle(models)
    for k in range(noisy_scans):
        material, theta = materials[k % len(materials)], thetas[k]
        truth = _random_shape(rng, models[k], _theory_s(material, theta))
        records = _simulate(material, theta, truth, heights)
        points = tuple(
            ScanPoint(r.azimuth_deg, r.delta_h_cm, r.power_dbm + rng.gauss(0.0, NOISE_DB)) for r in records
        )
        scan_file = f"noisy{k}.csv"
        write_scan(Scan(points=points), input_dir / scan_file)
        wl.inputs.append(scan_file)
        wl.calls.append(_fit_call(f"noisy{k}", scan_file, material, theta, positions))

    # noiseless dual-lobe scan whose truth lies on the search grid: the fit
    # must return it exactly, with FVU 0.0. It converges in one round, a
    # different cost from the noisy fits, so it is a check and not part of
    # the timed pass
    material = rng.choice(materials)
    theta = round(rng.uniform(*THETA_RANGE_DEG), 2)
    truth = _random_shape(rng, LobeModel.DUAL_LOBE, round(_theory_s(material, theta), 4))
    write_simulated_scan(_simulate(material, theta, truth, heights), input_dir / "ongrid.csv")
    wl.inputs.append("ongrid.csv")
    wl.ongrid = _fit_call("ongrid", "ongrid.csv", material, theta, positions, extra=("--s-initial", _fmt(truth.s_coeff)))
    wl.ongrid.truth = truth
    return wl


def _simulate_call(name, material, theta, s, lam, edge, model="dual", mode="hemisphere") -> Call:
    # lobe widths stay at the CLI defaults, alpha_r 4 and alpha_i 10
    out = f"{name}.csv"
    args = ["simulate", "--material", material, "--theta-deg", _fmt(theta), "--model", model, "--s", _fmt(s)]
    if model == "dual":
        args += ["--lambda", _fmt(lam)]
    args += ["--tiles-m", _fmt(edge), "--heights", CYLINDER_HEIGHTS_ARG, "--out", out]
    if mode != "hemisphere":
        args[-2:-2] = ["--mode", mode]
    alphas = (DEFAULT_ALPHA_R, DEFAULT_ALPHA_I) if model == "dual" else (DEFAULT_ALPHA_R,)
    positions = len(ScanSpec(height_offsets=CYLINDER_HEIGHTS).azimuths_deg()) * len(CYLINDER_HEIGHTS)
    return Call(
        name=name,
        kind="simulate",
        args=args,
        outputs=[out],
        positions=positions,
        tiles=_tile_count(material, theta, edge),
        alphas=alphas,
        expected_rows=positions,
    )


def _refine_workload(seed: int, input_dir: Path) -> Workload:
    rng = random.Random(f"simulate-refine:{seed}")
    wl = Workload()
    materials = default_materials().names()
    material = rng.choice(materials)
    theta = REFINE_THETA_DEG
    s = round(min(0.9, max(0.05, _theory_s(material, theta) + rng.uniform(-0.1, 0.1))), 4)
    lam = round(rng.randint(1, 9) * 0.1, 10)
    for edge in REFINE_EDGES:
        wl.calls.append(_simulate_call(f"sim_{edge}", material, theta, s, lam, edge, model="single"))
    wl.calls.append(_simulate_call("line", material, theta, s, lam, FIT_TILE_EDGE, mode="line"))
    n_theta = 89  # CLI default grid: 1 to 89 degrees in 1-degree steps
    wl.calls.append(
        Call(name="theory", kind="theory", args=["theory", "--out", "theory.csv"], outputs=["theory.csv"],
             expected_rows=n_theta * len(materials))
    )
    wl.calls.append(
        Call(
            name="pattern",
            kind="pattern",
            args=["pattern", "--material", material, "--model", "dual", "--lambda", _fmt(lam), "--out", "pattern.csv"],
            outputs=["pattern.csv"],
            expected_rows=2 * n_theta,
        )
    )
    probe = _fit_call("probe", f"sim_{FIT_TILE_EDGE}.csv", material, theta, wl.calls[0].positions,
                      extra=("--model", "single"))
    probe.outputs = probe.outputs[:1]
    wl.probe = probe
    return wl


WORKLOADS = {
    "fit-arc": lambda seed, d: _fit_workload("fit-arc", seed, d, ARC_HEIGHTS, noisy_scans=4),
    "fit-cylinder": lambda seed, d: _fit_workload("fit-cylinder", seed, d, CYLINDER_HEIGHTS, noisy_scans=2),
    "simulate-refine": _refine_workload,
}


def generate(name: str, seed: int, input_dir: Path) -> Workload:
    """Write the inputs of one workload into input_dir and return its calls."""
    input_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, input_dir)
