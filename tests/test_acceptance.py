"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s` to see them)
and enforcing its runtime budget."""

import itertools
import math
import random
import re
import time
from decimal import Decimal, getcontext
from pathlib import Path

import pytest

from conftest import WAVELENGTH_28GHZ, dual_scores_by_mix, series_i0
from mmscatter.cli import EXIT_OK, main as cli_main
from mmscatter.fileio import FileFormatError, default_materials, read_materials, read_scan, scan_from_records
from mmscatter.fitting import ScanEvaluator, fvu, grid_fit, lambda_grid, s_grid
from mmscatter.geometry import ScanSpec, paper_scene
from mmscatter.lobes import LobeModel, LobeParams, RadioLink, pattern_sweep
from mmscatter.materials import (
    IncidenceContext,
    Material,
    Polarization,
    bessel_i0,
    initial_scattering_coefficient,
    rayleigh_factor,
)
from mmscatter.raytrace import simulate_scan

REPO_ROOT = Path(__file__).resolve().parents[1]

# 40-digit evaluation of sqrt(1 - R^2) for the rough wall (eps_r 10.5,
# h_rms 0.715 mm) at 28 GHz, wavelength = 3e8 / 28e9 m
BOUND_ORACLE = {20.0: 0.66045818412121213, 30.0: 0.62377248310559893, 40.0: 0.56914226227386496}
# reference initial scattering coefficients quoted for the same surface
REPORTED_INITIAL_S = {20.0: 0.7462, 30.0: 0.6174, 40.0: 0.4791}


def _passed(n: int, message: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {n} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {n} PASS ({elapsed:.2f}s): {message}")


def _rayleigh_decimal_oracle(g: float) -> float:
    # exp(-g) * I0(g) at 50 significant digits
    getcontext().prec = 50
    gd = Decimal(g)
    quarter = (gd / 2) ** 2
    term = Decimal(1)
    total = Decimal(1)
    k = 1
    while True:
        term = term * quarter / (Decimal(k) * Decimal(k))
        total += term
        if term < total * Decimal("1e-45"):
            break
        k += 1
    return float((-gd).exp() * total)


def test_criterion_1_special_functions():
    started = time.perf_counter()
    for i in range(2001):
        x = 20.0 * i / 2000
        oracle = series_i0(x)
        assert abs(bessel_i0(x) - oracle) <= 1e-10 * oracle

    rng = random.Random(1001)
    for _ in range(100):
        h_rms = rng.random() * 2e-3
        theta = rng.random() * math.radians(85.0)
        wavelength = 5e-3 + rng.random() * 25e-3
        g = 8.0 * (math.pi * h_rms * math.cos(theta) / wavelength) ** 2
        oracle = _rayleigh_decimal_oracle(g)
        got = rayleigh_factor(h_rms, theta, wavelength)
        assert abs(got - oracle) <= 1e-9 * oracle
    _passed(1, "bessel_i0 within 1e-10 of the series oracle on [0,20]; "
               "rayleigh_factor within 1e-9 of 50-digit evaluation at 100 draws", started, 1.0)


def test_criterion_2_energy_split_identity():
    started = time.perf_counter()
    rng = random.Random(2002)
    for _ in range(1000):
        material = Material("x", eps_r=1.0 + 14.0 * rng.random(), h_rms=rng.random() * 2e-3)
        rng.random()  # the draw that once set a slab thickness, kept so the seeded cases stay the same
        ctx = IncidenceContext(
            theta_i=rng.random() * (math.pi / 2 - 1e-3),
            wavelength=5e-3 + rng.random() * 25e-3,
            polarization=rng.choice(list(Polarization)),
        )
        bundle = initial_scattering_coefficient(material, ctx)
        assert abs(bundle.s_coeff**2 + bundle.gamma_rough**2 - bundle.gamma**2) <= 1e-12
    _passed(2, "S^2 + Gamma_rough^2 = Gamma^2 to 1e-12 over 1000 random draws", started, 1.0)


def test_criterion_3_shipped_database_exact(tmp_path):
    started = time.perf_counter()
    db = default_materials()
    expected = {
        "metal_sheet": (6.0, 0.170 * 1e-3),
        "marble_wall": (6.2, 0.216 * 1e-3),
        "smooth_wall": (5.8, 0.445 * 1e-3),
        "rough_wall": (10.5, 0.715 * 1e-3),
    }
    assert sorted(db.names()) == sorted(expected)
    for name, (eps_r, h_rms) in expected.items():
        material = db.get(name)
        assert material.name == name
        assert material.eps_r == eps_r
        assert material.h_rms == h_rms
    # the half-space model stores no slab thickness, but every record must give a valid one
    shipped = (REPO_ROOT / "src" / "mmscatter" / "data" / "materials.txt").read_text(encoding="utf-8")
    path = tmp_path / "materials.txt"
    for bad in ("", "thickness_cm 0", "thickness_cm -32", "thickness_cm inf", "thickness_cm 32 in"):
        path.write_text(shipped.replace("thickness_cm 32", bad), encoding="utf-8")
        with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}:\d+: "):
            read_materials(path)
    _passed(3, "all 12 stored database cells reproduced exactly; thickness_cm required and validated", started, 5.0)


def test_criterion_4_theoretical_s_bound_documented():
    started = time.perf_counter()
    for theta_deg, oracle in BOUND_ORACLE.items():
        r = rayleigh_factor(0.715e-3, math.radians(theta_deg), WAVELENGTH_28GHZ)
        bound = math.sqrt(1.0 - r * r)
        assert abs(bound - oracle) <= 1e-4
    # the quoted 20-degree initial S exceeds any value reachable with |Gamma| <= 1
    r20 = rayleigh_factor(0.715e-3, math.radians(20.0), WAVELENGTH_28GHZ)
    bound20 = math.sqrt(1.0 - r20 * r20)
    assert REPORTED_INITIAL_S[20.0] > bound20
    # loose documentation-level agreement for the remaining rows under |Gamma| = 1
    for theta_deg, reported in REPORTED_INITIAL_S.items():
        r = rayleigh_factor(0.715e-3, math.radians(theta_deg), WAVELENGTH_28GHZ)
        assert abs(math.sqrt(1.0 - r * r) - reported) <= 0.15
    note = (REPO_ROOT / "docs" / "theoretical_s_bound.md").read_text(encoding="utf-8")
    assert "0.7462" in note and "0.660458" in note and "exceeds" in note
    _passed(4, "sqrt(1-R^2) bound matches the oracle at 20/30/40 deg and the "
               "0.7462 > 0.6605 discrepancy is recorded in docs/theoretical_s_bound.md", started, 5.0)


def test_criterion_5_exact_fit_recovery():
    started = time.perf_counter()
    db = default_materials()
    link = RadioLink(p_t=0.01, g_t=10**1.5, g_r=10**1.5, wavelength=WAVELENGTH_28GHZ)
    scene = paper_scene("rough_wall", 30.0)
    spec = ScanSpec()
    rng = random.Random(2024)
    s_choices = [0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50]

    truths = []
    for _ in range(10):
        truths.append(LobeParams(LobeModel.SINGLE_LOBE, rng.choice(s_choices), rng.randint(1, 10)))
    for _ in range(10):
        truths.append(
            LobeParams(
                LobeModel.DUAL_LOBE,
                rng.choice(s_choices),
                rng.randint(1, 10),
                alpha_i=rng.randint(1, 10),
                lambda_mix=round(rng.randint(1, 9) * 0.1, 10),
            )
        )

    for truth in truths:
        scan = scan_from_records(simulate_scan(scene, spec, truth, link, db, 0.5))
        evaluate = ScanEvaluator(scan, scene, link, db, tile_edge=0.5)
        report = grid_fit(evaluate, truth.model, truth.s_coeff)
        assert report.fvu == 0.0, truth
        assert report.best == truth, (report.best, truth)
        assert report.converged

        zero_set = []
        for s_value in s_grid(truth.s_coeff):
            if truth.model is LobeModel.SINGLE_LOBE:
                shapes = [LobeParams(truth.model, s_value, a) for a in range(1, 11)]
                zero_set += [params for params in shapes if evaluate(params) <= 1e-12]
                continue
            # the 11 mixes of each width pair are scored together, bit for bit as
            # ScanEvaluator.__call__ scores each (test_fitting.py::TestBatchedScoring)
            for ar, ai in itertools.product(range(1, 11), repeat=2):
                _, values = dual_scores_by_mix(evaluate, s_value, ar, ai)
                zero_set += [
                    LobeParams(truth.model, s_value, ar, alpha_i=ai, lambda_mix=lam_mix)
                    for lam_mix, value in zip(lambda_grid(), values.tolist())
                    if value <= 1e-12
                ]
        assert zero_set == [truth], f"minimum not unique for {truth}: {zero_set}"
    _passed(5, "20 random on-grid truths (10 single, 10 dual) recovered with FVU = 0; "
               "exhaustive grid confirms each minimum unique", started, 60.0)


def test_criterion_6_fvu_identities():
    started = time.perf_counter()
    measured = [-61.2, -55.8, -70.1, -64.4, -58.0]
    assert fvu(measured, measured) == 0.0
    mean = sum(measured) / len(measured)
    assert fvu(measured, [mean] * len(measured)) == pytest.approx(1.0, rel=1e-14)
    simulated = [-60.9, -57.0, -69.2, -65.0, -58.4]
    base = fvu(measured, simulated)
    assert abs(fvu([m + 7.5 for m in measured], [s + 7.5 for s in simulated]) - base) <= 1e-12
    assert abs(fvu([2.5 * m for m in measured], [2.5 * s for s in simulated]) - base) <= 1e-12
    _passed(6, "FVU = 0 on identical vectors, 1 against the mean, shift/scale invariant to 1e-12", started, 5.0)


def test_criterion_7_pattern_trend_suite():
    started = time.perf_counter()
    db = default_materials()
    link = RadioLink(p_t=0.01, g_t=10**1.5, g_r=10**1.5, wavelength=WAVELENGTH_28GHZ)
    shapes = {
        "metal_sheet": LobeParams(LobeModel.SINGLE_LOBE, 0.0, 4),
        "marble_wall": LobeParams(LobeModel.SINGLE_LOBE, 0.0, 4),
        "smooth_wall": LobeParams(LobeModel.SINGLE_LOBE, 0.0, 4),
        "rough_wall": LobeParams(LobeModel.DUAL_LOBE, 0.0, 1, alpha_i=10, lambda_mix=0.2),
    }

    grid = [float(t) for t in range(60, 86)]
    for name, shape in shapes.items():
        _, powers = pattern_sweep(db.get(name), shape, link, grid)
        assert all(a > b for a, b in zip(powers, powers[1:])), name

    # pattern_sweep's pair: (incident, specular)
    for direction, index in (("specular", 1), ("incident", 0)):
        at30 = {
            name: pattern_sweep(db.get(name), shape, link, [30.0])[index][0]
            for name, shape in shapes.items()
        }
        assert at30["rough_wall"] > at30["smooth_wall"] >= at30["marble_wall"] > at30["metal_sheet"], direction

    smooth = db.get("smooth_wall")
    single4 = shapes["smooth_wall"]

    def gap_db(theta_deg):
        (inc,), (spec,) = pattern_sweep(smooth, single4, link, [theta_deg])
        return abs(10.0 * math.log10(spec / inc))

    assert gap_db(10.0) < gap_db(40.0)
    _passed(7, "specular power strictly decreasing on 60-85 deg for all materials; "
               "rough > smooth >= marble > metal at 30 deg; 10-deg gap < 40-deg gap", started, 5.0)


def test_criterion_8_metal_specular_dominance():
    started = time.perf_counter()
    db = default_materials()
    link = RadioLink(p_t=0.01, g_t=10**1.5, g_r=10**1.5, wavelength=WAVELENGTH_28GHZ)
    scene = paper_scene("metal_sheet", 30.0)
    s_theory = initial_scattering_coefficient(
        db.get("metal_sheet"), IncidenceContext(scene.incidence_angle, WAVELENGTH_28GHZ)
    ).s_coeff
    records = simulate_scan(scene, ScanSpec(), LobeParams(LobeModel.SINGLE_LOBE, s_theory, 4), link, db, 0.2)
    assert len(records) == 19
    for record in records:
        if abs(record.azimuth_deg) == 90.0:
            # receiver in the wall plane: the image path is geometrically
            # degenerate there, so no specular contribution can exist
            assert record.specular_dbm == float("-inf")
            continue
        assert record.specular_dbm > record.diffuse_dbm, record
    _passed(8, "metal-sheet specular power exceeds diffuse power at every "
               "non-degenerate arc position (the +/-90 deg endpoints sit in the wall plane)", started, 5.0)


def test_criterion_9_plane_only_vs_3d_fit():
    started = time.perf_counter()
    db = default_materials()
    link = RadioLink(p_t=0.01, g_t=10**1.5, g_r=10**1.5, wavelength=WAVELENGTH_28GHZ)
    scene = paper_scene("rough_wall", 30.0)
    # off the mix grid, so neither fit can be exact and the two weightings
    # of the out-of-plane records pull the compromise apart
    truth = LobeParams(LobeModel.DUAL_LOBE, 0.45, 3, alpha_i=8, lambda_mix=0.35)
    spec = ScanSpec(height_offsets=(0.0, 0.10, 0.20, 0.30))
    scan = scan_from_records(simulate_scan(scene, spec, truth, link, db, 0.5))
    assert len(scan) == 76

    plane_report = grid_fit(ScanEvaluator(scan, scene, link, db, tile_edge=0.5, plane_only=True),
                            LobeModel.DUAL_LOBE, truth.s_coeff)
    full_report = grid_fit(ScanEvaluator(scan, scene, link, db, tile_edge=0.5, plane_only=False),
                           LobeModel.DUAL_LOBE, truth.s_coeff)
    assert plane_report.best != full_report.best

    in_plane = ScanEvaluator(scan.plane_only(), scene, link, db, tile_edge=0.5)
    assert abs(in_plane(full_report.best) - plane_report.fvu) <= 0.1
    _passed(9, "plane-only and 3D fits select different parameters while the 3D fit "
               "stays within 0.1 in-plane FVU of the plane-only optimum", started, 120.0)


def test_criterion_10_byte_identical_runs(tmp_path):
    started = time.perf_counter()
    sim = tmp_path / "sim.csv"
    sim_args = [
        "simulate", "--material", "rough_wall", "--theta-deg", "30", "--model", "dual",
        "--s", "0.35", "--alpha-r", "1", "--alpha-i", "10", "--lambda", "0.2",
        "--tiles-m", "0.5", "--out", str(sim),
    ]
    assert cli_main(sim_args) == EXIT_OK
    first_sim = sim.read_bytes()
    assert cli_main(sim_args) == EXIT_OK
    assert sim.read_bytes() == first_sim

    report = tmp_path / "fit.txt"
    fit_args = [
        "fit", "--scan", str(sim), "--material", "rough_wall", "--theta-deg", "30",
        "--model", "dual", "--s-initial", "0.35", "--tiles-m", "0.5", "--out", str(report),
    ]
    assert cli_main(fit_args) == EXIT_OK
    first_report = report.read_bytes()
    assert cli_main(fit_args) == EXIT_OK
    assert report.read_bytes() == first_report
    # the scan parses back identically too
    assert read_scan(sim).powers_dbm() == read_scan(sim).powers_dbm()
    _passed(10, "repeated simulate and fit invocations produce byte-identical files", started, 60.0)
